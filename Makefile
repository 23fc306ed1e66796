# Developer entry points. `make verify` is the full pre-merge gate, each
# suite run once: tier-1 (release build + the root package's suites), every
# member crate's tests (the paper golden among them), tier-1 again on one
# CPU, the release concurrency stress, lints, formatting and a smoke run of
# the concurrency bench. The per-suite targets below (paper, chaos, obs,
# profile, marts, repl, distjoin, plancache, session) run subsets of `test`
# and `test-workspace`, for local use. `make perf-smoke` is the extra step
# for a change to a library crate. `make mutants` is the mutant gate: it
# stays out of `verify` (it rebuilds once per mutant) and is run by any
# change to a suite's generator and by any change that retires a suite.

.PHONY: verify build test test-workspace onecpu lint fmt bench bench-smoke perf-smoke paper chaos obs profile marts repl stress distjoin plancache session mutants loc

verify: build test test-workspace onecpu stress lint fmt bench-smoke

build:
	cargo build --release

# Tier-1: the root package only (its integration suites).
test:
	cargo test -q

# Every member crate's unit and integration tests too — the storage, WAL,
# sqlkit, warehouse, wire and service tests `make test` never runs, and the
# paper golden (`make paper`), which only a test of the bench package can
# run. The root package is `make test`'s.
test-workspace:
	cargo test -q --workspace --exclude gridfed

# Tier-1 again with the process confined to one CPU. A mediator gives its
# scatter as many threads as the CPUs it may run on, so here every query
# runs all of its branches on the calling thread: the layout the pinned
# benchmark measures, which a multi-CPU `make test` never takes.
onecpu:
	taskset -c 0 cargo test -q --no-fail-fast

# Clippy over every target, warnings as errors. `clarens`, `core`,
# `faults`, `ntuple`, `obs`, `poolral`, `rls`, `simnet`, `sqlkit`,
# `storage`, `unity`, `vendors`, `warehouse` and `xspec` also deny
# `unwrap`, `expect`, `panic!` and `unreachable!` outside their tests (a
# crate attribute in each `lib.rs`): every shipped crate.
lint:
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --check

bench:
	cargo bench -p gridfed-bench

# One tiny sweep of the concurrency bench (`--test`), the one bench left
# in `crates/bench`: catches a bench that panics or no longer compiles
# without paying measurement time. Wall-clock measurement of the library
# is perfbench's (`make perf-smoke`).
bench-smoke:
	cargo bench -p gridfed-bench --bench concurrency -- --test

# The paper's figures, pinned: Table 1 and Figure 6 (plain and `--wan`),
# Figures 4 and 5 and the ablations, their stdout compared byte for byte
# with `crates/bench/tests/golden/paper_bins.txt`. A deliberate move
# regenerates it in its own commit: `UPDATE_GOLDEN=1 make paper`.
paper:
	cargo test -q -p gridfed-bench --test paper_bins

# perfbench is a package of its own (not a workspace member, so nothing
# above compiles it) that calls some forty public functions of the library
# crates: its smoke run (2 rounds per workload, every answer checked) and
# unit tests are what tells a library change it broke the benchmark every
# change is judged by. The smoke run exits non-zero when any of its four
# `failed_share` lines counts a failed operation: its untraced passes are
# the ones that run the mediator itself — sub-query answers handed over as
# typed columns and adopted as staging tables — and check every answer
# against `execute_select` over one merged database — the engine under test
# itself, not an independent reference, until perfbench's answer check moves
# onto `gridfed-reference`. The 2-s traced `table1_fed` run is the one
# perfbench's README asks of a change to the query route: the layer trace replays
# scatter_gather's branch grouping and wave order from outside and must
# still equal the mediator's answers. `live_grid` is the one workload that
# runs with the observability gate on, so a change to what a traced query
# records is only exercised there: both its passes are checked too. The
# traced `fig6_wide` run replays the data path through the row API —
# `Connection::query_stmt`, `Partial::from_result` and `integrate_metered`:
# rows built at the backend, staged from rows, then the mediator join — on
# ~1 100-row answers, where the Table-1 runs move ~25; the mediator's own
# columnar hand-off shows only in the untraced passes. The traced `analytic_scan` run
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
# and the whole-grid simulator — per connection policy, 256 fixed seeds of
# one schedule on a replicated grid of two or three mediators under
# query-path and replication faults at once, with windows drawn over the
# whole schedule (exact, typed or annotated after every step, staleness
# bounds kept and refusals typed, every traced record composing, marts
# equal to their views after every refresh and caught-up pump, convergence
# once the faults clear, the lag shown in EXPLAIN and the monitor tables;
# a failing seed replays bit for bit).
chaos:
	cargo test -q --test failure_paths --test grid_sim

# Observability suite: stitched-trace acceptance, the gridfed_monitor.*
# relational surface, the EXPLAIN / EXPLAIN ANALYZE golden files
# (regenerate those with UPDATE_GOLDEN=1), and the three guards of the
# per-query record: every monitor table and span tree byte-identical to the
# file recorded before it (that golden is regenerated at its parent commit
# only), the allocation budgets of a traced query and of a returned row
# (two each: one at the backend, one for the client), and concurrent
# clients against a concurrent monitor reader; and the packed hop spans
# against the owned decode they replaced, hostile lists included.
obs:
	cargo test -q --test observability --test golden_explain \
		--test obs_projection_golden --test obs_alloc_budget --test obs_concurrency \
		--test hop_spans

# Statement-profiling suite: the fingerprint text's rules, tested in
# sqlkit's lexer beside the cache key (both are folds over the one SQL
# scanner), and the aggregation, metrics-history/SLO unit tests and
# series-handle semantics in the obs crate. What tracing costs a query is
# gated by `make obs` (allocations) and by the `live_grid` benchmark
# workload (wall clock).
profile:
	cargo test -q -p gridfed-sqlkit lexer
	cargo test -q -p gridfed-obs

# Mart-refresh suite: a refresh catches each mart's replication stream up
# to the WAL head, through the full stack (delta ETL, versioned patch or
# atomic swap, RLS freshness, placement, cache invalidation), and the
# snapshot-isolation concurrency hammering. Refreshes and pumps in any
# order, under faults, are `grid_sim`'s (`make chaos`): after every
# refresh and every caught-up pump each mart table equals its view over
# the warehouse, bit for bit, and no version goes down.
marts:
	cargo test -q --test mart_refresh --test concurrency

# WAL replication suite — the one writer of a built mart, whether pumped
# or refreshed: the whole-grid simulator (continuous replay under capped
# batches, replicas converging once faults heal, a bounded read never
# exceeding its bound and a refusal naming it, the lag in stats, EXPLAIN
# and the monitor tables, with query-path faults on too), the 256-seed
# fold differential (after every poll each mart table equals its view over
# the warehouse as of the acked LSN, bit for bit), the 160-seed ETL delta
# differential (after every sweep the keyed extraction leaves the fact
# table, WAL, report and fault draws of a sweep that reads every source
# table whole), and the 10 000-case hostile-input properties of the WAL
# reader and replayer (`records_since`, `pull_wal`, `apply_wal_record`:
# exact or typed, never a panic).
repl:
	cargo test -q --test grid_sim --test repl_fold_differential \
		--test etl_delta_differential --test wal_hostile_input

# Distributed-join suite: the reduced and the full-scatter plan each held
# to `gridfed-reference` over the grid's merged database (256 cases + 64
# seeded-fault cases, each answered query's
# `execute + resilience` recomputed as the critical path through its
# branches' dependencies), the scatter cost at the paper's scale (a
# reduction ships, moves >=5x fewer bytes and answers sooner; with the
# session it at least halves the Table-1 row-3 join that full scatter runs
# at >=10x a non-distributed baseline), the scatter's unit tests
# (dependencies, the dispatcher's threads and waits, critical-path
# composition) and the 10 000-case hostile-input property of the
# `BLOOM_HAS` payload decoder.
distjoin:
	cargo test -q --test distjoin_differential
	cargo test -q -p gridfed-core scatter::
	cargo test -q -p gridfed-sqlkit bloom::

# Plan-cache suite, both sides of the wire: the mediator's 256-seed
# cached-vs-never-seen differential (two identically built grids, one
# reusing plans and one planning every statement from scratch, through
# every event that moves a resolver answer — a row-count statistic among
# them, which WAL apply moves only past a tenth's drift; each answer held
# to `gridfed-reference` over the merged database; planning priced as
# done, so their costs differ by exactly the planning skipped) and its
# bounds and counter tests; the drift rule on a replicated grid (ingest
# under it keeps every plan, a load past it re-plans each federated
# statement once, a mart registered empty is planned from its loaded
# count) and its unit tests; the vendor servers' prepared-plan
# differential (every answer and error equal to `execute_select` planned
# afresh, through inserts, schema replacement, drop/re-create, rename and
# crash windows; a stamp holds a row count only where the optimizer sized
# a join chain by it) and their bounds tests, a foreign text refused while
# its statement is prepared among them; the key/LRU tests of
# `sqlkit::cache`, and kept scan bindings used only over the columns they
# were built from. Debug build on purpose: every reuse then also asserts,
# inside the mediator or the server, that the reused plan, dictionary
# answers, dialect text and scan bindings equal what planning, the
# dictionary, rendering and `Bindings::for_table` would give.
plancache:
	cargo test -q --test plan_cache_differential --test plan_statistic
	cargo test -q -p gridfed-core cache
	cargo test -q -p gridfed-core replicas
	cargo test -q -p gridfed-vendors --test prepared
	cargo test -q -p gridfed-vendors --lib server::
	cargo test -q -p gridfed-sqlkit --lib cache::
	cargo test -q -p gridfed-sqlkit --lib kept_scan_bindings

# Session suite: the 128-seed `Session`-vs-`PerQuery` differential (two
# identically built grids, one keeping connections, channels and RLS leases,
# one connecting and asking per query: each arm's answers held to
# `gridfed-reference` over the merged database, equal routing, response
# times apart by exactly the handshakes and lookups saved), the
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

# The mutant gate: every entry of tests/mutants.toml (one fixed bug put
# back, or one guard taken out, as a one-line edit) is applied alone to a
# detached copy of HEAD under target/mutants, and each suite it names must
# fail. Fails when a mutant survives, does not build, or names a line that
# has changed. See tests/mutants.sh for its knobs.
mutants:
	bash tests/mutants.sh

# Concurrency stress: the multi-threaded hammer (worker pool + admission
# queue + refresh churn) at full speed under the release profile, where
# thin synchronization bugs actually race.
stress:
	cargo test -q --release --test concurrency

# The size table ROADMAP re-anchors are written from: per file of the two
# mediator crates the lines before its first `#[cfg(test)]`, then the
# setters left in `core`, the lock/atomic cells `DataAccessService` holds (a
# field line naming Mutex, RwLock or an Atomic*), `sqlkit`'s size and
# `pub trait` count, its `HashMap<u64` lines outside `keys.rs` (0: every
# key index is the one in `sqlkit::keys`), the size of the dev-only
# reference interpreter
# (`crates/reference`, code that left `sqlkit` but still has to be read),
# the root package's suites with their shared `tests/common` module, the
# seeded RNGs defined under `tests/` (1: the shared one),
# and the sizes of `obs`, `storage`, `vendors` and `warehouse`. Two checks fail the target: no
# manifest may name `gridfed-reference` under `[dependencies]` (a test-only
# crate must never ship), and the hop counters
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
	@awk 'FNR == 1 {skip = (FILENAME ~ /\/keys\.rs$$/)} /#\[cfg\(test\)\]/ {skip = 1} skip {next} \
		/HashMap<u64/ {n++} END {printf "%6d `HashMap<u64` in crates/sqlkit/src outside keys.rs, non-test\n", n}' \
		crates/sqlkit/src/*.rs
	@awk 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next} {n++} \
		END {printf "%6d crates/reference/src, non-test (dev-only, not shipped)\n", n}' crates/reference/src/*.rs
	@cat tests/*.rs tests/common/*.rs | wc -l | \
		awk '{printf "%6d tests/*.rs + tests/common/*.rs (the root package suites)\n", $$1}'
	@grep -rE '^ *(pub )?(fn splitmix|struct Rng)\b' tests | wc -l | \
		awk '{printf "%6d `fn splitmix` / `struct Rng` definitions under tests/ (1: tests/common)\n", $$1}'
	@for c in obs storage vendors warehouse; do \
		awk -v c=$$c 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next} {n++} \
			END {printf "%6d crates/%s/src, non-test\n", n, c}' crates/$$c/src/*.rs; \
	done
	@awk 'FNR == 1 {on = 0} /^\[/ {on = ($$0 == "[dependencies]")} \
		on && /^gridfed-reference/ {print FILENAME ":" FNR ": " $$0; n++} \
		END {printf "%6d manifests with gridfed-reference in [dependencies]%s\n", n, n ? ": NO, see above" : ""; \
			exit n > 0}' Cargo.toml crates/*/Cargo.toml
	@names=$$(awk '/^pub\(crate\) static HOP_COUNTERS/ {on = 1; next} on && /^};/ {exit} \
		on {sub(/:.*/, ""); gsub(/ /, ""); print}' crates/core/src/stats.rs | paste -sd "|" -); \
	awk -v names="$$names" 'FNR == 1 {skip = 0; on = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next} \
		/fn (absorb_remote|stats_to_wire|wire_to_stats)\(/ {on = 1; match($$0, /^ */); end = sprintf("%*s}", RLENGTH, "")} \
		on && $$0 ~ "(^|[^a-z_])(" names ")([^a-z_]|$$)" {print FILENAME ":" FNR ":" $$0; bad = 1} \
		on && $$0 == end {on = 0} \
		END {printf "%6d hop counters, named outside `QueryStats` in the table only%s\n", \
			split(names, a, "|"), bad ? ": NO, see above" : ""; exit bad}' crates/core/src/*.rs
