(** Two-level minimization.

    Two engines stand behind {!minimize}:

    - an exact multi-output Quine–McCluskey (minterm expansion, prime
      generation by level merging, essential-prime extraction, then greedy
      completion of the covering table) for small input counts;
    - an espresso-style heuristic (EXPAND each cube by raising literals
      while the enlarged cube stays inside the function, then an
      IRREDUNDANT pass) whose validity checks are cofactor-tautology
      based, so no minterm enumeration is ever needed.

    The paper's C2 claim — PLAs programmed for specific functions — is
    measured in E3 with and without this pass. *)

(** [minimize ?dontcare ?exact cover] returns an equivalent (on the care
    set) cover with fewer or equal product terms.  Default engine: exact
    when [ninputs <= 10], heuristic otherwise. *)
val minimize : ?dontcare:Cover.t -> ?exact:bool -> Cover.t -> Cover.t

(** The heuristic engine directly, regardless of size. *)
val heuristic : ?dontcare:Cover.t -> Cover.t -> Cover.t
