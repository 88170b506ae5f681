#!/usr/bin/env bash
# End-to-end checks of the scc command line: the compile front door on
# every source kind, its exit codes, the isp alias, and the circuit
# specs equiv resolves.
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

expect 0 "compile -o" "$scc" compile counter -o "$dir/compile.cif"
expect 0 "isp -o" "$scc" isp counter -o "$dir/isp.cif"
if ! cmp -s "$dir/compile.cif" "$dir/isp.cif"; then
  echo "FAIL: the isp alias wrote different CIF than compile" >&2
  fail=1
fi

expect 0 "equiv hand:alu4 hand:alu" "$scc" equiv hand:alu4 hand:alu

exit $fail
