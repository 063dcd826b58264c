#!/usr/bin/env bash
# Counts scalar (…sd) against packed (…pd) double-precision arithmetic
# instructions in the lockstep kernels of a release `paraspace-cli` and in
# both twins of every ISA-twinned kernel (`isa_twins!`: a `::baseline` copy
# for x86-64 baseline, an `::avx2` copy with AVX2), and fails unless
#
#   * packed instructions outnumber scalar ones in the DOPRI5 lane kernel —
#     the check behind every "the row passes run packed arithmetic" in the
#     docs. Loose on purpose: it catches a pass that fell back to one scalar
#     operation per lane (the mix was 1 476 scalar / 140 packed before the
#     rows had a compile-time length), not a lost percent;
#   * every twinned kernel has both twins in the binary, and every AVX2 twin
#     does packed arithmetic on `ymm` registers (four lanes per instruction)
#     — a twin without any runs as if it were baseline;
#   * no listed kernel contains a fused multiply-add (`vfmadd…`, `vfmsub…`,
#     `vfnmadd…`, `vfnmsub…`): a fused operation rounds once where the
#     kernel's arithmetic rounds twice, and the results would move.
#
#   scripts/lane-asm-check.sh [path/to/paraspace-cli]
#
# Build the binary first: cargo build --release -p paraspace-cli
set -euo pipefail

bin="${1:-target/release/paraspace-cli}"
[ -x "$bin" ] || { echo "lane-asm-check: no binary at $bin" >&2; exit 2; }

objdump -d -C "$bin" | awk '
BEGIN {
    gate = "paraspace_solvers::dopri5_batch::solve_queue_impl"
    n = split(gate " paraspace_solvers::radau5_batch::solve_queue_impl " \
              "paraspace_rbm::odes::CompiledOdes::jacobian_batch", kernels, " ")
    t = split("paraspace_linalg::lu::eliminate paraspace_linalg::lu::eliminate_planar " \
              "paraspace_linalg::lu::substitute_planar_lanes " \
              "paraspace_rbm::odes::rhs_batch", twinned, " ")
    for (i = 1; i <= t; i++) {
        kernels[++n] = twinned[i] "::baseline"
        kernels[++n] = twinned[i] "::avx2"
    }
}
# "0000000000123456 <symbol>:" opens a function.
/^[0-9a-f]+ <.*>:$/ {
    current = ""
    for (i = 1; i <= n; i++) if (index($0, "<" kernels[i] ">:")) current = kernels[i]
    if (current != "") seen[current] = 1
    next
}
# "  addr:<TAB>bytes<TAB>mnemonic operands"
current != "" && NF {
    split($0, field, "\t")
    split(field[3], word, " ")
    if (word[1] ~ /^v?(add|sub|mul|div|max|min|sqrt)sd$/) scalar[current]++
    if (word[1] ~ /^v?(add|sub|mul|div|max|min|sqrt)pd$/) {
        packed[current]++
        if (field[3] ~ /%ymm/) wide[current]++
    }
    if (word[1] ~ /^vf(n?madd|n?msub)/) fused[current]++
}
END {
    for (i = 1; i <= n; i++) {
        k = kernels[i]
        if (!seen[k]) { printf "lane-asm-check: symbol %s not found\n", k; bad = 1; continue }
        printf "%-52s scalar %5d  packed %5d  ymm %5d  fused %d\n",
            k, scalar[k], packed[k], wide[k], fused[k]
        if (fused[k]) {
            printf "lane-asm-check: FAIL: %s contains fused multiply-adds\n", k
            fail = 1
        }
        if (k ~ /::avx2$/ && !wide[k]) {
            printf "lane-asm-check: FAIL: %s has no ymm packed arithmetic\n", k
            fail = 1
        }
    }
    if (bad) exit 2
    if (packed[gate] <= scalar[gate]) {
        printf "lane-asm-check: FAIL: %s is not packed arithmetic\n", gate
        fail = 1
    }
    if (fail) exit 1
    printf "lane-asm-check: ok\n"
}'
