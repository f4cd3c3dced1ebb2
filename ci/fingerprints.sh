#!/usr/bin/env bash
# Checks one suite family's semantic fingerprint against its committed digest
# and across oracle engines, worker counts and verdict-cache settings.
#
# usage: bash ci/fingerprints.sh <quick|circuit|table1|ktails>
#
# `quick` (the default quick suite) and `circuit` (the gate-level circuit
# family) run the same four steps:
#   1. kinduction with --repeat 2 and --compare: the two repeats must give
#      identical fingerprints, solve calls and cache hits, and a 1-worker
#      re-run must be byte-identical; the fastest repeat of each benchmark
#      is kept, dumped to the file the committed digest names, and checked
#      with `sha256sum -c`;
#   2. portfolio with --compare and --cross-validate, diffed against step 1:
#      every query the portfolio routes to the explicit engine is answered
#      again by k-induction and the two answers are asserted equal;
#   3. --no-cache under kinduction, diffed against step 1;
#   4. --no-cache under portfolio, diffed against step 1.
# The quick kinduction run also writes suite-quick.json, with best-of-2 wall
# times, for perf-diff.
#
# `table1` regenerates the paper-shape Table I fingerprint under kinduction
# (the paper's engine, passed explicitly because portfolio is the default)
# and checks its digest. It then diffs a portfolio run with --cross-validate
# against it, so every query routed to the explicit engine at the paper's
# 50x50 shape is answered again by k-induction.
#
# `ktails` runs the quick Table I benchmarks with the k-tails learner under
# the default engine (portfolio) and checks their digest, so the loop is
# pinned under a second learner.
#
# The fingerprint files (fp-*.txt) and suite-quick.json are written to the
# repository root, where the digests expect them.
set -euo pipefail

cd "$(dirname "$0")/.."

suite() {
    cargo run --release -p amle-bench --bin suite -- "$@"
}

family=${1:-}
case "$family" in
    quick)
        flags=(--quick)
        baseline=fp-kinduction.txt
        digest=ci/quick-suite.fingerprint.sha256
        json=(--json suite-quick.json)
        ;;
    circuit)
        flags=(--quick --circuits --only Circuit)
        baseline=fp-circuits.txt
        digest=ci/circuit-suite.fingerprint.sha256
        json=()
        ;;
    table1)
        suite --table1-only --engine kinduction --dump-fingerprint fp-table1.txt
        sha256sum -c ci/table1-paper.fingerprint.sha256
        suite --table1-only --engine portfolio --cross-validate \
            --dump-fingerprint fp-table1-portfolio.txt
        diff fp-table1.txt fp-table1-portfolio.txt
        exit 0
        ;;
    ktails)
        suite --quick --table1-only --learner ktails --dump-fingerprint fp-ktails.txt
        sha256sum -c ci/ktails-quick.fingerprint.sha256
        exit 0
        ;;
    *)
        echo "usage: $0 <quick|circuit|table1|ktails>" >&2
        exit 2
        ;;
esac

suite "${flags[@]}" --repeat 2 --compare --engine kinduction \
    --dump-fingerprint "$baseline" "${json[@]}"
sha256sum -c "$digest"

suite "${flags[@]}" --compare --engine portfolio --cross-validate \
    --dump-fingerprint "fp-$family-portfolio.txt"
diff "$baseline" "fp-$family-portfolio.txt"

for engine in kinduction portfolio; do
    suite "${flags[@]}" --engine "$engine" --no-cache \
        --dump-fingerprint "fp-$family-$engine-nocache.txt"
    diff "$baseline" "fp-$family-$engine-nocache.txt"
done

echo "$family: fingerprints match $digest across engines, workers and cache settings"
