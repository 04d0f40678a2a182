.PHONY: build test check bench bench-smoke bench-gate metrics-demo \
	trace-demo clean

build:
	dune build

test:
	dune runtest

# Checked mode over the corpus, warnings as errors (docs/CHECKING.md).
check: build
	@for f in examples/programs/*.iv; do \
	  echo "check $$f"; \
	  dune exec bin/ivtool.exe -- check --werror $$f || exit 1; \
	done

bench:
	dune exec bench/main.exe

# The three counter experiments (B1 batch reuse, B2 incremental
# reuse, B4 range precision), writing BENCH_service.json,
# BENCH_incremental.json and BENCH_ranges.json.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# The bench gate CI runs: each experiment against its checked-in
# baseline. Every field is a deterministic counter, so a move of more
# than 1% either way fails; a change that moves one on purpose
# regenerates the baseline in the same diff.
bench-gate: bench-smoke
	dune exec bin/ivtool.exe -- bench-diff \
	  bench/BASELINE_b1_smoke.json BENCH_service.json
	dune exec bin/ivtool.exe -- bench-diff \
	  bench/BASELINE_b2_smoke.json BENCH_incremental.json
	dune exec bin/ivtool.exe -- bench-diff \
	  bench/BASELINE_b4_smoke.json BENCH_ranges.json

# The metrics tour (docs/OBSERVABILITY.md, "Metrics & profiling"):
# Prometheus exposition of a pooled batch, and a profiled classify.
metrics-demo:
	dune exec bin/ivtool.exe -- metrics -j 2 --artifacts all \
	  examples/programs/*.iv
	dune exec bin/ivtool.exe -- classify --profile \
	  examples/programs/fig9_triangular.iv > /dev/null

# The observability tour (docs/OBSERVABILITY.md): traced parallel batch
# over the example corpus, trace validation, one provenance report.
# Outputs stay under _build/ so the working tree is never dirtied.
trace-demo:
	mkdir -p _build
	dune exec bin/ivtool.exe -- batch -j 2 --artifacts all --repeat 2 \
	  --trace _build/trace_demo.json --trace-summary examples/programs/*.iv
	dune exec bin/ivtool.exe -- trace-check _build/trace_demo.json
	dune exec bin/ivtool.exe -- explain examples/programs/l14_closed_forms.iv

clean:
	dune clean
	rm -f trace_demo.json batch_j1.out batch_j4.out
