# Developer entry points. `make verify` is the full pre-merge gate:
# tier-1 (release build + tests), every member crate's unit tests, the
# deterministic chaos suite, lints, formatting, and a smoke run of every
# criterion bench (one iteration each, no timing). `make perf-smoke` is
# the extra step for a change to a library crate.

.PHONY: verify build test test-workspace lint fmt bench bench-smoke perf-smoke chaos obs profile marts repl stress distjoin plancache session loc

verify: build test test-workspace chaos obs profile marts repl stress distjoin plancache session lint fmt bench-smoke

build:
	cargo build --release

# Tier-1: the root package only (its integration suites).
test:
	cargo test -q

# Every member crate's unit and integration tests too — the storage, WAL,
# sqlkit, warehouse, wire and service tests `make test` never runs.
test-workspace:
	cargo test -q --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --check

bench:
	cargo bench -p gridfed-bench

# Run each bench body exactly once (criterion `--test` mode): catches
# benches that panic or no longer compile without paying measurement time.
bench-smoke:
	cargo bench -p gridfed-bench -- --test

# perfbench is a package of its own (not a workspace member, so nothing
# above compiles it) that calls some forty public functions of the library
# crates: its smoke run (2 rounds per workload, every answer checked) and
# unit tests are what tells a library change it broke the benchmark every
# PR is judged by. The 2-s traced `table1_fed` run is the one perfbench's
# README asks of a change to the query route: the layer trace replays
# scatter_gather's branch grouping and wave order from outside and must
# still equal the mediator's answers. `live_grid` is the one workload that
# runs with the observability gate on, so a change to what a traced query
# records is only exercised there: both its passes are checked too. The
# traced `fig6_wide` run is the one for a change to the data path: its
# replay calls `Connection::query_stmt` and `integrate_metered` — row
# building at the backend, staging and the mediator join — on ~1 100-row
# answers, where the Table-1 runs move ~25. The traced `analytic_scan` run
# is the one for a change to the executor's result shaping: its replay
# drives GROUP BY / HAVING and ORDER BY … LIMIT over a 10 000-event mart
# through `execute_plan_metered`, the paths no Table-1 or Fig-6 statement
# takes. A single run exits 0 whatever it found, so the gate is the grep on
# its result line. ~40 s once built.
perf-smoke:
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --smoke
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --workload table1_fed --seconds 2 --trace 1 \
		| tail -n 1 | grep -o '"correct": true, "attempted": [0-9]*, "failed": 0,'
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --workload fig6_wide --seconds 2 --trace 1 \
		| tail -n 1 | grep -o '"correct": true, "attempted": [0-9]*, "failed": 0,'
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --workload analytic_scan --seconds 2 --trace 1 \
		| tail -n 1 | grep -o '"correct": true, "attempted": [0-9]*, "failed": 0,'
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --workload live_grid --seconds 2 --trace 0 \
		| tail -n 1 | grep -o '"correct": true, "attempted": [0-9]*, "failed": 0,'
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --workload live_grid --seconds 2 --trace 1 \
		| tail -n 1 | grep -o '"correct": true, "attempted": [0-9]*, "failed": 0,'
	cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Deterministic fault-injection suite: the resilience integration tests
# and the 256-seed chaos property (fixed seeds — reproduces bit-for-bit).
chaos:
	cargo test -q --test failure_paths --test prop_chaos

# Observability suite: stitched-trace acceptance, the gridfed_monitor.*
# relational surface, the EXPLAIN / EXPLAIN ANALYZE golden files
# (regenerate those with UPDATE_GOLDEN=1), and the three guards of the
# per-query record: every monitor table and span tree byte-identical to the
# file recorded before it (that golden is regenerated at its parent commit
# only), the allocation budgets of a traced query and of a returned row
# (two each: one at the backend, one for the client), and concurrent
# clients against a concurrent monitor reader.
obs:
	cargo test -q --test observability --test golden_explain \
		--test obs_projection_golden --test obs_alloc_budget --test obs_concurrency

# Statement-profiling suite: fingerprint normalization/aggregation and the
# metrics-history/SLO unit tests in the obs crate, plus one untimed pass
# of the obs-overhead bench bodies (off / on / profiled query paths).
profile:
	cargo test -q -p gridfed-obs
	cargo bench -p gridfed-bench --bench obs_overhead -- --test

# Mart-refresh suite: incremental/versioned refresh through the full
# stack (delta ETL, atomic swap, RLS freshness, placement, cache
# invalidation) plus the snapshot-isolation concurrency hammering.
marts:
	cargo test -q --test mart_refresh --test concurrency

# WAL replication suite: the log-shipping integration tests (continuous
# replay, lag surfacing, bounded-staleness routing/failover), the 128-seed
# replication chaos property (convergence after faults heal), and the
# 256-seed fold differential (after every poll each mart table equals its
# view over the warehouse as of the acked LSN, bit for bit).
repl:
	cargo test -q --test replication --test prop_repl_chaos --test repl_fold_differential

# Distributed-join suite: the reduced-vs-full-scatter differential
# property (256 cases + 64 seeded-fault cases) and the scatter-cost
# bench (asserts >=5x bytes-moved reduction; numbers in
# BENCH_distjoin.json).
distjoin:
	cargo test -q --test distjoin_differential
	cargo run -q -p gridfed-bench --bin distjoin

# Plan-cache suite: the 256-seed cached-vs-never-seen differential (two
# identically built grids, one reusing plans and one planning every
# statement from scratch, through every event that moves a resolver
# answer) and the mediator's own key/LRU/bounds/counter tests. Debug build
# on purpose: every reuse then also asserts, inside the mediator, that the
# reused plan equals `decompose::plan` called fresh.
plancache:
	cargo test -q --test plan_cache_differential
	cargo test -q -p gridfed-core cache

# Session suite: the 128-seed `Session`-vs-`PerQuery` differential (two
# identically built grids, one keeping connections, channels and RLS leases,
# one connecting and asking per query: equal answers, errors and routing,
# response times apart by exactly the handshakes and lookups saved), the
# deterministic keep/let-go cases on the shared virtual clock + fault plan
# (lease TTL, unreachable reports, crash and rls_stale windows, a restarted
# backend, an installed driver) with the session arm's EXPLAIN / monitor
# golden, and the session's own unit tests. A kept channel carries a wave's
# sub-queries for one peer in one `query_federated` call: the differential
# prices the calls saved to the microsecond, `tests/session.rs` counts the
# calls at the peer (and what a retry, a failing statement and a withheld
# answer do to a batch), and `core::wire` holds both wire forms — a call of
# one statement hex-pinned to the bytes it always was, and the 10 000-case
# property that whatever arrives on the hop is decoded or refused, typed.
session:
	cargo test -q --test session_differential --test session
	cargo test -q -p gridfed-core session
	cargo test -q -p gridfed-core wire::

# Concurrency stress: the multi-threaded hammer (worker pool + admission
# queue + refresh churn) at full speed under the release profile, where
# thin synchronization bugs actually race.
stress:
	cargo test -q --release --test concurrency

# The size table ROADMAP re-anchors are written from: per file of the two
# mediator crates the lines before its first `#[cfg(test)]`, then the
# setters left in `core`, the lock/atomic cells `DataAccessService` holds (a
# field line naming Mutex, RwLock or an Atomic*), and `sqlkit`'s size and
# `pub trait` count. Last, a check that fails the target: the hop counters
# are listed in `stats::HOP_COUNTERS` only, so the body of `absorb_remote`
# and of the stats encoder / decoder must name none of them.
loc:
	@for f in crates/core/src/*.rs crates/poolral/src/*.rs; do \
		awk '/#\[cfg\(test\)\]/ {exit} {n++} END {printf "%6d %s\n", n, FILENAME}' $$f; \
	done | awk '{total += $$1; print} END {printf "%6d core + poolral, non-test\n", total}'
	@awk 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1} !skip && /pub fn set_/ {n++} \
		END {printf "%6d `pub fn set_` in crates/core/src, non-test\n", n}' crates/core/src/*.rs
	@awk '/^pub struct DataAccessService \{/ {on = 1} on && /^}/ {exit} \
		on && /^    [a-z_() ]+: .*(Mutex|RwLock|Atomic)/ {n++} \
		END {printf "%6d Mutex|RwLock|Atomic fields in DataAccessService\n", n}' crates/core/src/service.rs
	@awk 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next} {n++} /^ *pub trait / {t++} \
		END {printf "%6d crates/sqlkit/src, non-test\n%6d `pub trait` in it\n", n, t}' crates/sqlkit/src/*.rs
	@names=$$(awk '/^pub\(crate\) static HOP_COUNTERS/ {on = 1; next} on && /^};/ {exit} \
		on {sub(/:.*/, ""); gsub(/ /, ""); print}' crates/core/src/stats.rs | paste -sd "|" -); \
	awk -v names="$$names" 'FNR == 1 {skip = 0; on = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next} \
		/fn (absorb_remote|stats_to_wire|wire_to_stats)\(/ {on = 1; match($$0, /^ */); end = sprintf("%*s}", RLENGTH, "")} \
		on && $$0 ~ "(^|[^a-z_])(" names ")([^a-z_]|$$)" {print FILENAME ":" FNR ":" $$0; bad = 1} \
		on && $$0 == end {on = 0} \
		END {printf "%6d hop counters, named outside `QueryStats` in the table only%s\n", \
			split(names, a, "|"), bad ? ": NO, see above" : ""; exit bad}' crates/core/src/*.rs
