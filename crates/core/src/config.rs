//! The one value a mediator is configured with (DESIGN.md §4.4,
//! "Configured once"). The service holds it in one cell; a query takes one
//! snapshot when it enters and runs under it to the end, so its branches
//! are never supervised, dispatched or routed under two configurations.

use crate::admission::{Admission, AdmissionConfig};
use crate::placement::ReplicaPolicy;
use crate::resilience::ResilienceConfig;
use crate::service::{ConnectionPolicy, DispatchMode, QueryOutcome};
use gridfed_faults::VirtualClock;
use gridfed_sqlkit::cache::Lru;
use gridfed_sqlkit::ExecConfig;
use parking_lot::Mutex;
use std::sync::Arc;

/// Everything a mediator can be told about how to run queries; every
/// ablation arm is a field value.
#[derive(Debug, Clone, PartialEq)]
pub struct MediatorConfig {
    /// Which replica of a locally registered table a query reads.
    pub replicas: ReplicaPolicy,
    /// How the branches of a wave are dispatched.
    pub dispatch: DispatchMode,
    /// What the mediator keeps open between queries.
    pub connections: ConnectionPolicy,
    /// Cost-based semi-join reduction (DESIGN.md §4.14). Off, every
    /// cross-database join is a full scatter in one wave — the shape the
    /// differential suite compares reduced plans against.
    pub distjoin: bool,
    /// Branch supervision; the default is a passthrough.
    pub resilience: ResilienceConfig,
    /// Worker threads per parallel operator of the mediator-side executor
    /// (DESIGN.md §4.11); 1 is the sequential executor, 0 is read as 1.
    pub workers: usize,
    /// Rows per parallel morsel, also the sequential-fallback threshold.
    pub morsel_rows: usize,
    /// The front-door admission queue, for client-facing entry points
    /// only: a `query_federated` hop waiting on a slot its caller holds
    /// could deadlock a mediator cycle.
    pub admission: Option<AdmissionConfig>,
    /// Entries the result cache for repeated identical queries retains
    /// (usually [`DEFAULT_CACHE_CAPACITY`](crate::service::DEFAULT_CACHE_CAPACITY)).
    pub result_cache: Option<usize>,
    /// Ceiling on the partial-result bytes one query may materialize at
    /// the mediator: a typed error in place of Unity's "the memory
    /// becomes overloaded".
    pub memory_limit: Option<usize>,
}

impl Default for MediatorConfig {
    fn default() -> MediatorConfig {
        MediatorConfig {
            replicas: ReplicaPolicy::First,
            dispatch: DispatchMode::Parallel,
            connections: ConnectionPolicy::Session,
            distjoin: true,
            resilience: ResilienceConfig::default(),
            workers: 1,
            morsel_rows: ExecConfig::default().morsel_rows,
            admission: None,
            result_cache: None,
            memory_limit: None,
        }
    }
}

/// One configuration as the queries running under it see it: the value,
/// and what is built from it once instead of per query.
pub(crate) struct Live {
    pub(crate) config: MediatorConfig,
    /// What every plan execution under this configuration is installed with.
    pub(crate) exec: ExecConfig,
    /// How many threads a scatter may run branches on at once: the CPUs
    /// this process may run on (its affinity mask and CPU quota) when the
    /// configuration was built, and one under `Sequential` dispatch.
    pub(crate) threads: usize,
    pub(crate) admission: Option<Arc<Admission>>,
    /// The result cache. Invalidated whenever the dictionary changes.
    pub(crate) results: Option<Arc<Mutex<Lru<QueryOutcome>>>>,
}

impl Live {
    /// The live form of `config`. The admission queue and the result
    /// cache of `before` carry over — waiters, slots and entries intact —
    /// unless their own field changed, in which case they start over.
    pub(crate) fn new(config: MediatorConfig, before: Option<&Live>) -> Live {
        let mut exec = ExecConfig::with_workers(config.workers);
        exec.morsel_rows = config.morsel_rows.max(1);
        // Pool workers start with the spawning thread's virtual-clock
        // offset, so a fault window reads the same time on any of them.
        if exec.workers > 1 {
            exec.worker_env = Some(Arc::new(|| {
                let offset = VirtualClock::thread_offset();
                Box::new(move || VirtualClock::install_thread_offset(offset))
            }));
        }
        let threads = match config.dispatch {
            DispatchMode::Parallel => std::thread::available_parallelism().map_or(1, usize::from),
            DispatchMode::Sequential => 1,
        };
        let admission = match before.filter(|b| b.config.admission == config.admission) {
            Some(before) => before.admission.clone(),
            None => config.admission.map(|c| Arc::new(Admission::new(c))),
        };
        let results = match before.filter(|b| b.config.result_cache == config.result_cache) {
            Some(before) => before.results.clone(),
            None => config
                .result_cache
                .map(|entries| Arc::new(Mutex::new(Lru::new(entries)))),
        };
        Live {
            config,
            exec,
            threads,
            admission,
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::grid::{Grid, GridBuilder};
    use crate::service::DataAccessService;
    use gridfed_clarens::directory::Directory;
    use gridfed_faults::FaultPlan;
    use gridfed_simnet::cost::{Cost, Timed};
    use gridfed_simnet::topology::Topology;
    use gridfed_vendors::driver::{server_address, Driver};
    use gridfed_vendors::{Connection, ConnectionString, DriverRegistry, VendorError, VendorKind};
    use std::sync::atomic::{AtomicBool, Ordering};

    const JOIN: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5";
    const ROW3: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
         FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         JOIN run_conditions c ON s.run_id = c.run_id \
         JOIN detector_summary d ON c.detector = d.detector WHERE e.e_id < 5";

    #[test]
    fn the_default_is_the_six_argument_mediator() {
        let das = DataAccessService::new(
            "clarens://node1:8443/das",
            "node1",
            Arc::new(DriverRegistry::with_standard_drivers()),
            Directory::new(),
            Arc::new(Topology::lan()),
            None,
        );
        assert_eq!(das.config(), MediatorConfig::default());
        assert!(das.admission().is_none());
        assert!(!das.config().resilience.enabled(), "a passthrough");
        // And what a builder nobody configured hands every mediator.
        let grid = GridBuilder::new().with_seed(3).build().expect("grid");
        assert_eq!(grid.service(0).config(), MediatorConfig::default());
    }

    #[test]
    fn reconfigure_restarts_only_what_its_field_stands_for() {
        let grid = GridBuilder::new()
            .with_seed(3)
            .with_admission(AdmissionConfig {
                slots: 2,
                queue_limit: 4,
            })
            .build()
            .expect("grid");
        let das = grid.service(0);
        let hit = || das.query(JOIN).expect("answers").value.stats.cache_hit;
        das.reconfigure(|c| c.result_cache = Some(8));
        assert!(!hit(), "starts empty");
        assert!(hit());
        let queue = das.admission().expect("configured");

        // Another field: the live queue and the cached results stay.
        das.reconfigure(|c| c.distjoin = false);
        assert!(!das.config().distjoin);
        assert!(Arc::ptr_eq(&queue, &das.admission().expect("still on")));
        assert!(hit(), "the cached results were kept");
        // Its own field, even to the same size twice over: no restart.
        das.reconfigure(|c| c.result_cache = Some(8));
        assert!(hit());

        das.reconfigure(|c| c.result_cache = Some(9));
        assert!(!hit(), "a resized cache restarts empty");
        assert!(Arc::ptr_eq(&queue, &das.admission().expect("still on")));
        das.reconfigure(|c| c.admission.as_mut().expect("on").slots = 3);
        let resized = das.admission().expect("still on");
        assert!(!Arc::ptr_eq(&queue, &resized), "a new queue");
        assert_eq!(resized.slots(), 3);
        assert!(hit(), "and the cache was not touched");
        das.reconfigure(|c| c.result_cache = None);
        assert!(!hit() && !hit(), "off");
    }

    #[test]
    fn changing_the_connection_policy_lets_go_of_what_the_session_kept() {
        let grid = GridBuilder::new().with_seed(3).build().expect("grid");
        let per_query = GridBuilder::new()
            .with_seed(3)
            .with_connection_policy(ConnectionPolicy::PerQuery)
            .build()
            .expect("grid");
        let ask = |g: &Grid| g.service(0).query(ROW3).expect("answers").value.stats;
        let (first, paper) = (ask(&grid), ask(&per_query));
        assert!(first.rls_lookups > 0 && first.connections_opened > 0);
        let kept = ask(&grid);
        assert_eq!((kept.rls_lookups, kept.connections_opened), (0, 0));

        // Leases are honoured whatever the policy, so they must not outlive
        // the one that took them; nor may the kept JDBC connection.
        grid.service(0)
            .reconfigure(|c| c.connections = ConnectionPolicy::PerQuery);
        for _ in 0..2 {
            let now = ask(&grid);
            assert_eq!(
                (now.rls_lookups, now.connections_opened, now.pooled_hits),
                (
                    paper.rls_lookups,
                    paper.connections_opened,
                    paper.pooled_hits
                ),
                "as on a mediator built `PerQuery`"
            );
        }
        grid.service(0)
            .reconfigure(|c| c.connections = ConnectionPolicy::Session);
        assert!(ask(&grid).connections_opened > 0, "kept anew");
        assert_eq!(ask(&grid).connections_opened, 0);
    }

    /// A driver that, once, reconfigures the mediator whose branch is
    /// connecting through it to supervise nothing.
    struct Meddler {
        das: Arc<DataAccessService>,
        armed: AtomicBool,
    }

    impl Driver for Meddler {
        fn vendor(&self) -> VendorKind {
            VendorKind::MsSql
        }

        fn connect(
            &self,
            conn: &ConnectionString,
            registry: &DriverRegistry,
        ) -> Result<Timed<Connection>, VendorError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.das
                    .reconfigure(|c| c.resilience = ResilienceConfig::default());
            }
            let (host, database) = server_address(conn);
            registry
                .lookup(&host, &database)?
                .connect(&conn.user, &conn.password)
        }
    }

    #[test]
    fn a_query_finishes_under_the_configuration_it_entered_with() {
        // JOIN is two one-branch waves: `mart_mssql`, then `mart_mysql`
        // reduced by its keys. `mart_mysql` is down for the first 40 ms, so
        // wave 1 answers only if it is retried — and between the waves the
        // mediator is reconfigured to retry nothing.
        let grid = GridBuilder::new()
            .with_seed(3)
            .with_resilience(ResilienceConfig {
                max_retries: 4,
                base_backoff: Cost::from_millis(25),
                max_backoff: Cost::from_millis(100),
                ..ResilienceConfig::standard()
            })
            .with_fault_plan(FaultPlan::new(5).crash(
                "mart_mysql",
                Cost::ZERO,
                Some(Cost::from_millis(40)),
            ))
            .build()
            .expect("grid");
        let das = grid.service(0);
        let meddler = Arc::new(Meddler {
            das: Arc::clone(das),
            armed: AtomicBool::new(true),
        });
        grid.registry
            .install(Arc::clone(&meddler) as Arc<dyn Driver>);

        let out = das.query(JOIN).expect("wave 1 was retried").value;
        assert!(!meddler.armed.load(Ordering::SeqCst), "wave 0 connected");
        assert_eq!(out.result.len(), 5);
        assert!(out.stats.retries > 0, "stats: {:?}", out.stats);
        assert!(out.stats.breakdown.resilience > Cost::ZERO);

        // The change holds for every query that starts after it.
        assert_eq!(das.config().resilience, ResilienceConfig::default());
        grid.fault_plan
            .as_ref()
            .expect("plan")
            .set_now(Cost::from_millis(10));
        let err = das.query(JOIN).unwrap_err();
        assert!(
            matches!(err, CoreError::BranchUnavailable { attempts: 1, .. }),
            "got {err:?}"
        );
    }
}
