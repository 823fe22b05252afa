# Developer entry points for the PahlevanVA16 reproduction.
#
#   make test        - tier-1 test suite (fast; what CI gates on)
#   make bench-smoke - tiny-scale benchmark suite: orchestrator fan-out,
#                      result-store warm hits, store-backend write/read/
#                      scan (per-file vs segment), the
#                      experiment-service warm wire throughput (8
#                      concurrent clients vs one daemon: batched +
#                      gzip + headline-projected submit_many vs the
#                      single-POST shape -> BENCH_service.json),
#                      the fleet cold-sweep scale-out (3 daemon
#                      subprocesses vs 1 over one shared store root
#                      -> BENCH_fleet.json; skips below 4 CPUs),
#                      the engine's
#                      per-slot hot paths, the fleet-batched
#                      slot-physics kernel (bench_green), the
#                      discrete-event driver throughput + byte-identity
#                      gate (bench_events -> BENCH_events.json), the
#                      campaign-ledger overhead gate (bench_suite:
#                      1k-run warm sweep, suite <= 1.10x raw
#                      submit_many -> BENCH_suite.json) and the
#                      data-correlation generation (loop oracle vs
#                      batched), each hot path against its oracle
#                      in tests/oracles/
#   make bench       - full benchmark harness (slow: one-week comparison)

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test bench-smoke bench store-compact-nightly

test:
	$(PYTEST) -x -q

# NOTE: -k matches whole node ids (module names included), so keywords
# must not appear in every bench_* filename or the filter is a no-op.
bench-smoke:
	$(PYTEST) -q benchmarks/bench_orchestrator.py \
		benchmarks/bench_scaling.py benchmarks/bench_datacorr.py \
		benchmarks/bench_store.py benchmarks/bench_green.py \
		benchmarks/bench_service.py benchmarks/bench_fleet.py \
		benchmarks/bench_workload_cache.py benchmarks/bench_events.py \
		benchmarks/bench_suite.py \
		-k "orchestrator or it_power or response_latencies or datacorr or store or green or service or fleet or workload or event_core or suite" \
		--benchmark-min-rounds=3

# Nightly follow-up to bench-smoke: compact the segment store the
# service benchmark leaves behind so tombstoned/duplicated records
# never accumulate between runs (the scheduled-compaction path).
store-compact-nightly:
	PYTHONPATH=src python -m repro store compact \
		--store benchmarks/reports/service_store

bench:
	$(PYTEST) -q benchmarks
