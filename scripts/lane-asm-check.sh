#!/usr/bin/env bash
# Counts scalar (…sd) against packed (…pd) double-precision arithmetic
# instructions in the lockstep kernels of a release `paraspace-cli`, and
# fails unless packed ones outnumber scalar ones in the DOPRI5 lane kernel —
# the check behind every "the row passes run packed arithmetic" in the docs.
# Loose on purpose: it catches a pass that fell back to one scalar operation
# per lane (the mix was 1 476 scalar / 140 packed before the rows had a
# compile-time length), not a lost percent.
#
#   scripts/lane-asm-check.sh [path/to/paraspace-cli]
#
# Build the binary first: cargo build --release -p paraspace-cli
set -euo pipefail

bin="${1:-target/release/paraspace-cli}"
[ -x "$bin" ] || { echo "lane-asm-check: no binary at $bin" >&2; exit 2; }

objdump -d -C "$bin" | awk '
BEGIN {
    gate = "dopri5_batch::solve_queue_impl"
    n = split(gate " radau5_batch::solve_queue_impl CompiledOdes::rhs_batch " \
              "CompiledOdes::jacobian_batch CompiledOdes::fluxes_batch", kernels, " ")
}
# "0000000000123456 <symbol>:" opens a function.
/^[0-9a-f]+ <.*>:$/ {
    current = ""
    for (i = 1; i <= n; i++) if (index($0, kernels[i] ">")) current = kernels[i]
    if (current != "") seen[current] = 1
    next
}
# "  addr:<TAB>bytes<TAB>mnemonic operands"
current != "" && NF {
    split($0, field, "\t")
    split(field[3], word, " ")
    if (word[1] ~ /^v?(add|sub|mul|div|max|min|sqrt)sd$/) scalar[current]++
    if (word[1] ~ /^v?(add|sub|mul|div|max|min|sqrt)pd$/) packed[current]++
}
END {
    for (i = 1; i <= n; i++) {
        k = kernels[i]
        if (!seen[k]) { printf "lane-asm-check: symbol %s not found\n", k; bad = 1; continue }
        printf "%-36s scalar %5d  packed %5d\n", k, scalar[k], packed[k]
    }
    if (bad) exit 2
    if (packed[gate] <= scalar[gate]) {
        printf "lane-asm-check: FAIL: %s is not packed arithmetic\n", gate
        exit 1
    }
    printf "lane-asm-check: ok\n"
}'
