#!/usr/bin/env bash
# End-to-end checks of the scc command line: a static, non-PIE link,
# the compile front door on every source kind, its exit codes, the isp
# alias, one --explain format through the daemon and without it, the
# circuit specs equiv resolves, serve's --exec-domains bound, a warm
# module edit over the disk stage cache, the pinned CIF text of the
# baseline designs, one domain per compile, missing input files, the
# size of pdp8's stage-cache entries, hostile CIF and the exact text of
# positioned diagnostics.
#
# Usage: cli.sh SCC COUNTER12_V   (run by `dune runtest`)
set -u
scc=$1
counter12=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0

# expect CODE WHAT CMD... — run CMD with stdout and stderr captured in
# $dir/out and $dir/err, and check its exit code
expect() {
  local want=$1 what=$2
  shift 2
  "$@" >"$dir/out" 2>"$dir/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: exit $got, expected $want" >&2
    cat "$dir/err" >&2
    fail=1
  fi
}

# scc is linked static (bin/dune): an ELF executable of type ET_EXEC
# with no PT_INTERP program header, so no process of it starts in the
# dynamic loader.  The header is read with od, so no binutils are needed.
# u OFFSET SIZE — the little-endian unsigned integer at OFFSET in scc
u() { od -An -t "u$2" -j "$1" -N "$2" "$scc" | tr -d ' '; }
if [ "$(od -An -c -j 1 -N 3 "$scc" | tr -d ' ')" != ELF ] ||
  [ "$(u 4 1)" -ne 2 ] || [ "$(u 5 1)" -ne 1 ]; then
  echo "FAIL: $scc is not a 64-bit little-endian ELF file" >&2
  fail=1
else
  if [ "$(u 16 2)" -ne 2 ]; then
    echo "FAIL: scc's ELF type is $(u 16 2), want 2 (ET_EXEC: static, non-PIE)" >&2
    fail=1
  fi
  phoff=$(u 32 8) phentsize=$(u 54 2) phnum=$(u 56 2)
  for ((i = 0; i < phnum; i++)); do
    if [ "$(u $((phoff + i * phentsize)) 4)" -eq 3 ]; then
      echo "FAIL: scc has a PT_INTERP program header: it starts in the dynamic loader" >&2
      fail=1
    fi
  done
fi

cat >"$dir/counter.isp" <<'EOF'
module counter;
inputs reset[1];
outputs q[4];
registers count[4];
behavior
  if reset == 1 then count := 0; else count := count + 1; end
  q := count;
end
EOF

cat >"$dir/shifter.lsl" <<'EOF'
cell stage() { inst dff() at (0,0); inst inv() at (width(dff()),0); }
cell main(n) { for i = 0 to n-1 { inst stage() at (i*width(stage()), 0); } }
EOF

expect 0 "compile a builtin" "$scc" compile counter
if [ -s "$dir/out" ]; then
  echo "FAIL: compile without -o wrote to stdout" >&2
  fail=1
fi
expect 0 "compile an ISP file" "$scc" compile "$dir/counter.isp"
expect 0 "compile a Verilog file" "$scc" compile "$counter12"
expect 0 "compile a layout-language file" "$scc" compile "$dir/shifter.lsl" -a 2
expect 2 "compile a missing source" "$scc" compile "$dir/nonesuch.isp"
expect 2 "--style on a Verilog source" "$scc" compile "$counter12" --style pla
# the PLA path has no placement restarts and no optimize pass to fault:
# both flags are refused, not silently dropped
expect 2 "--inject-fault under --style pla" \
  "$scc" compile counter --style pla --inject-fault 1 --certify
expect 2 "--restarts under --style pla" \
  "$scc" compile counter --style pla --restarts 3
# a misapplied flag is the request's mistake, so the client refuses it
# before connecting, with the message scc compile prints
printf 'cell main() { box metal 0 0 8 4; }\n' >"$dir/tile.lsl"
for flags in "$counter12 --style pla" "$dir/tile.lsl --style gates" \
  "$dir/tile.lsl --restarts 2" "counter --style pla --restarts 2"; do
  # shellcheck disable=SC2086
  expect 2 "compile $flags" "$scc" compile $flags
  mv "$dir/err" "$dir/compile.err"
  # shellcheck disable=SC2086
  expect 2 "client compile $flags" \
    "$scc" client compile $flags --socket "$dir/nowhere.sock"
  if ! grep -q '^error: request: ' "$dir/err" ||
    ! cmp -s "$dir/compile.err" "$dir/err"; then
    echo "FAIL: $flags: compile and client compile refuse differently" >&2
    cat "$dir/compile.err" "$dir/err" >&2
    fail=1
  fi
done
# fault injection targets the flat optimize pass: a modular source
# refuses it rather than compiling, and certifying, without the fault
expect 1 "--inject-fault on a modular source" \
  "$scc" compile system --inject-fault 1 --certify
if ! grep -q '^error: chip: .*--inject-fault' "$dir/err"; then
  echo "FAIL: --inject-fault on a modular source: want a chip diagnostic" >&2
  cat "$dir/err" >&2
  fail=1
fi

expect 0 "compile -o" "$scc" compile counter -o "$dir/compile.cif"
expect 0 "isp -o" "$scc" isp counter -o "$dir/isp.cif"
if ! cmp -s "$dir/compile.cif" "$dir/isp.cif"; then
  echo "FAIL: the isp alias wrote different CIF than compile" >&2
  fail=1
fi

# an --exec-domains count the runtime cannot start is refused in one
# line, before the daemon binds its socket or spawns a domain
expect 2 "serve --exec-domains past the domain limit" \
  "$scc" serve --socket "$dir/serve.sock" --exec-domains 1000
if [ "$(wc -l <"$dir/err")" -ne 1 ] || [ -e "$dir/serve.sock" ]; then
  echo "FAIL: serve --exec-domains 1000: want one line and no socket" >&2
  cat "$dir/err" >&2
  fail=1
fi

# one --explain renderer: a cold compile through the daemon prints the
# same `explain:` lines as a cold single-shot compile
"$scc" serve --socket "$dir/scc.sock" 2>"$dir/serve.err" &
serve_pid=$!
for _ in $(seq 200); do [ -S "$dir/scc.sock" ] && break; sleep 0.05; done
expect 0 "compile --explain" "$scc" compile counter --explain
grep '^explain: ' "$dir/err" >"$dir/explain.single"
expect 0 "client compile --explain" \
  "$scc" client compile counter --explain --socket "$dir/scc.sock"
grep '^explain: ' "$dir/err" >"$dir/explain.daemon"
if [ ! -s "$dir/explain.single" ] ||
  ! cmp -s "$dir/explain.single" "$dir/explain.daemon"; then
  echo "FAIL: compile --explain and client compile --explain differ" >&2
  cat "$dir/explain.single" "$dir/explain.daemon" >&2
  fail=1
fi
"$scc" client shutdown --socket "$dir/scc.sock" >/dev/null 2>&1 ||
  kill "$serve_pid"
wait "$serve_pid"

expect 0 "equiv hand:alu4 hand:alu" "$scc" equiv hand:alu4 hand:alu

# A warm rebuild whose accum module comes from the disk stage cache,
# written by an earlier process, and whose mixer module is new: cells
# of the two processes may share ids, and the CIF must stay whole.
cat >"$dir/system-edit.isp" <<'EOF'
module mixer;
inputs a[4], b[4];
outputs y[4];
behavior
  y := ((a | b) ^ 7) + 1;
end

module accum;
inputs d[4], reset[1];
outputs q[4];
registers acc[4];
behavior
  if reset == 1 then acc := 0;
  else acc := acc + d;
  end
  q := acc;
end

chip system;
inputs a[4], b[4], reset[1];
outputs q[4];
instances
  u_mix : mixer;
  u_acc : accum;
connect
  u_mix.a = a;
  u_mix.b = b;
  u_acc.d = u_mix.y;
  u_acc.reset = reset;
  q = u_acc.q;
end
EOF
expect 0 "prime the stage cache" "$scc" compile system --stage-cache "$dir/stages"
expect 0 "warm module edit" "$scc" compile "$dir/system-edit.isp" --stage-cache "$dir/stages" -o "$dir/warm.cif"
expect 0 "cold module edit" "$scc" compile "$dir/system-edit.isp" -o "$dir/cold.cif"
expect 0 "drc of the warm CIF" "$scc" drc "$dir/warm.cif"
if ! grep -qx 'DRC clean' "$dir/out"; then
  echo "FAIL: the warm module edit's CIF is not DRC clean" >&2
  cat "$dir/out" "$dir/err" >&2
  fail=1
fi
expect 0 "stats of the warm CIF" "$scc" stats "$dir/warm.cif"
warm=$(grep -o 'transistors [0-9]*, rects [0-9]*' "$dir/out")
expect 0 "stats of the cold CIF" "$scc" stats "$dir/cold.cif"
cold=$(grep -o 'transistors [0-9]*, rects [0-9]*' "$dir/out")
if [ -z "$cold" ] || [ "$warm" != "$cold" ]; then
  echo "FAIL: warm module edit: '$warm', cold: '$cold'" >&2
  fail=1
fi
# and it is the cold compile's CIF, byte for byte: the module read back
# from disk shares this process's library cells, one symbol each
if ! cmp "$dir/warm.cif" "$dir/cold.cif"; then
  echo "FAIL: warm module edit's CIF differs from the cold compile's" >&2
  fail=1
fi

# A malformed literal is a positioned diagnostic on every command that
# reads ISP or chip-block text, never an uncaught exception (exit 125).
# expect_at CODE WHAT LINE:COL CMD... — as expect, and stderr names
# LINE:COL
expect_at() {
  local at=$3
  expect "$1" "$2" "${@:4}"
  if ! grep -q "$at: " "$dir/err"; then
    echo "FAIL: $2: the diagnostic does not name $at" >&2
    cat "$dir/err" >&2
    fail=1
  fi
}
cat >"$dir/badlit.isp" <<'EOF'
module counter;
inputs reset[1];
outputs q[4];
behavior
  q := reset + 0x;
end
EOF
sed 's/^inputs a\[4\], b\[4\], reset/inputs a[99999999999999999999], b[4], reset/' \
  "$dir/system-edit.isp" >"$dir/badchip.isp"
expect_at 1 "sim of a bare 0x" 5:16 "$scc" sim "$dir/badlit.isp"
expect_at 2 "equiv of a bare 0x" 5:16 "$scc" equiv "$dir/badlit.isp" isp:counter
expect_at 1 "compile of a bare 0x" 5:16 "$scc" compile "$dir/badlit.isp"
expect_at 1 "compile of an oversized chip-block width" 20:10 \
  "$scc" compile "$dir/badchip.isp"

# Every frontend's diagnostic is one line, "error: STAGE: LINE:COL:
# MESSAGE", positioned in the file.
# expect_line CODE WHAT TEXT CMD... — as expect, and stderr has the
# line TEXT
expect_line() {
  local text=$3
  expect "$1" "$2" "${@:4}"
  if ! grep -qxF "$text" "$dir/err"; then
    echo "FAIL: $2: no line '$text' on stderr" >&2
    cat "$dir/err" >&2
    fail=1
  fi
}
printf 'cell main() {\n  box metal 0 0 n 4;\n}\n' >"$dir/unbound.lsl"
expect_line 1 "an unbound layout-language variable" \
  'error: elaborate: 2:3: unbound variable "n"' "$scc" compile "$dir/unbound.lsl"
# a layout-language entry the program cannot run is a command-line
# mistake, exit 2, with the compile's message; a program that does not
# parse is still refused as a compile failure first
expect_line 2 "an --entry no cell defines" \
  'error: elaborate: entry cell "nosuch" not found' \
  "$scc" compile "$dir/shifter.lsl" --entry nosuch -a 2
expect_line 2 "an --args count the entry cell does not take" \
  'error: elaborate: 2:1: entry cell main expects 1 arguments, got 3' \
  "$scc" compile "$dir/shifter.lsl" -a 1,2,3
printf 'cell main() { box metal 0 0 8 ; }\n' >"$dir/badbox.lsl"
expect_line 1 "a layout-language syntax error before a bad --entry" \
  'error: elaborate: 1:31: expected an expression, found ;' \
  "$scc" compile "$dir/badbox.lsl" --entry nosuch
# a module block's error is at its line in the file (the mixer starts
# on line 3), not in the block (5:12)
{
  printf -- '-- two modules and a chip\n\n'
  sed 's/y := ((a | b) ^ 7) + 1;/y := a ^ 0x;/' "$dir/system-edit.isp"
} >"$dir/badmix.isp"
expect_line 1 "a bad literal in a module block" \
  'error: module:parse: 7:12: literal 0x has no digits' "$scc" compile "$dir/badmix.isp"
printf 'module t(input a, output w);\n  assign w = a |;\nendmodule\n' >"$dir/bad.v"
expect_line 1 "a Verilog syntax error" \
  "error: verilog.parse: 2:17: expected an expression, found ';'" \
  "$scc" compile "$dir/bad.v"
printf 'DS 1 250 1;\nL NM;\nB 4 4 2 x;\nDF;\nE\n' >"$dir/badbox.cif"
expect_line 3 "a CIF box with three integers" \
  'error: syntax: 3:1: B: expected 4 or 6 integers, got 3' "$scc" drc "$dir/badbox.cif"

# The CIF text of the baseline designs, and of two multi-start
# placements, pinned by MD5.  A change that moves geometry on purpose
# updates these.
while read -r digest design flags; do
  # shellcheck disable=SC2086 # $flags is a word list
  expect 0 "compile $design $flags" "$scc" compile "$design" $flags -o "$dir/pinned.cif"
  got=$(md5sum <"$dir/pinned.cif" | cut -d' ' -f1)
  if [ "$got" != "$digest" ]; then
    echo "FAIL: $design $flags: CIF MD5 $got, pinned $digest" >&2
    fail=1
  fi
done <<PINS
f8bddfd33c7135c47f067005c3aa443c pdp8
3a694bff220815d4f787431f02fe74cb counter
51431483cb032a63e56925bb047f6e89 traffic
2f57cc1c8e49e1686d61025d3b228827 alu4
e633bf78a2f1d308307f087011910894 system
a973b02bd68d68be1b9fc29bfc984da6 $counter12
b5e886bcd204ac81495a098ae5baf1cb pdp8 --restarts 4
ed8c7bb2aa27593d2b41471b4c52a23b $counter12 --restarts 4
PINS

# A compile runs on the domain that calls it: every span of a certified
# modular compile with placement restarts carries the same trace tid.
expect 0 "compile system --trace" "$scc" compile system --certify --restarts 4 \
  --trace "$dir/trace.json" -o /dev/null
spans=$(grep -o '"ph":"X"' "$dir/trace.json" | wc -l)
tids=$(grep -o '"tid":[0-9]*' "$dir/trace.json" | sort | uniq -c)
if [ "$spans" -eq 0 ] || [ "$(printf '%s\n' "$tids" | wc -l)" -ne 1 ] ||
  [ "$(printf '%s\n' "$tids" | awk '{ print $1 }')" -ne "$spans" ]; then
  echo "FAIL: the spans of one compile carry tids other than one: $spans spans, tids:" >&2
  printf '%s\n' "$tids" >&2
  fail=1
fi

# A missing input file is a usage error, exit 2, in every subcommand
# that reads one.
for verb in drc stats extract svg sim report; do
  expect 2 "$verb of a missing file" "$scc" "$verb" "$dir/nonesuch"
  if ! grep -q "no such file" "$dir/err"; then
    echo "FAIL: $verb of a missing file: no diagnostic" >&2
    cat "$dir/err" >&2
    fail=1
  fi
done
expect 2 "equiv of a missing file" "$scc" equiv "$dir/nonesuch" isp:counter
expect 0 "compile counter --metrics" "$scc" compile counter --metrics "$dir/m.json"
expect 2 "diff against a missing baseline" "$scc" diff "$dir/nonesuch" "$dir/m.json"
expect 2 "diff with missing thresholds" "$scc" diff "$dir/m.json" "$dir/m.json" \
  --thresholds "$dir/nonesuch"
expect 2 "client compile --baseline of a missing file" "$scc" client compile counter \
  --socket "$dir/no.sock" --baseline "$dir/nonesuch"

# So is an input that is not a regular file, never an uncaught
# Sys_error (exit 125).
mkdir "$dir/adir"
for cmd in "sim $dir/adir" "equiv $dir/adir isp:counter" "compile $dir/adir" \
  "diff $dir/m.json $dir/m.json --thresholds $dir/adir" \
  "client compile counter --socket $dir/no.sock --baseline $dir/adir" \
  "drc $dir/adir"; do
  # shellcheck disable=SC2086 # $cmd is a word list
  expect_line 2 "$cmd" "error: not a regular file: $dir/adir" "$scc" $cmd
done

# A placed layout is stored as its instances: the composed cell keeps no
# copy of its gates' ports, so pdp8's place entry in the stage cache,
# which every warm rebuild reads back, stays small (362 047 bytes when
# the 12 534 promoted ports were stored with it).  Its emit entry holds
# the CIF, which names each instance instead of labelling every promoted
# port in the top symbol (372 240 bytes with those labels).
expect 0 "compile pdp8 into a stage cache" "$scc" compile pdp8 --stage-cache "$dir/pdp8-stages"
for limit in place:65536 emit:40960; do
  stage=${limit%:*} max=${limit#*:}
  entries=$(find "$dir/pdp8-stages" -type f -name "$stage-*")
  if [ "$(printf '%s\n' "$entries" | grep -c .)" -ne 1 ]; then
    echo "FAIL: expected one $stage entry in pdp8's stage cache, found: $entries" >&2
    fail=1
  else
    size=$(wc -c <"$entries")
    if [ "$size" -ge "$max" ]; then
      echo "FAIL: pdp8's $stage stage-cache entry is $size bytes, under $max required" >&2
      fail=1
    fi
  fi
done

# Hostile CIF is a diagnostic and exit 3, never an uncaught exception
# (exit 125) nor the DRC-dirty 1: a port labelled twice in one symbol,
# an instance name no call follows.
printf 'DS 1 250 1;\n9 t;\nL NM;\nB 8 8 4 4;\n94 a 4 4 NM;\n94 a 4 4 NM;\nDF;\nC 1;\nE\n' \
  >"$dir/twice.cif"
printf 'DS 1 250 1;\nL NM;\nB 8 8 4 4;\nDF;\nDS 2 250 1;\n91 g;\nDF;\nC 2;\nE\n' >"$dir/dangling.cif"
for f in twice dangling; do
  for verb in extract drc stats; do
    expect 3 "$verb of $f.cif" "$scc" "$verb" "$dir/$f.cif"
    if ! grep -q 'structure: symbol' "$dir/err"; then
      echo "FAIL: $verb of $f.cif: no structure diagnostic" >&2
      fail=1
    fi
  done
done
# an integer past the native range is a syntax error too
printf 'DS 1 250 1;\nL NM;\nB 99999999999999999999 4 2 2;\nDF;\nE\n' >"$dir/big.cif"
expect_line 3 "drc of an oversized CIF integer" \
  'error: syntax: 3:3: integer 99999999999999999999 out of range' \
  "$scc" drc "$dir/big.cif"

exit $fail
