//! Replica-selection policies.
//!
//! The data dictionary may resolve a logical table to several hosting
//! databases (replicated marts). The prototype picked the first; the
//! paper's future work asks for "a system that could decide the closest
//! available database (in terms of network connectivity) from a set of
//! replicated databases" — implemented here as [`ReplicaPolicy::Closest`].
//! With versioned mart refresh, replicas of the same mart table can also
//! disagree on *data version*; [`ReplicaPolicy::Freshest`] routes to the
//! highest version (ties broken by network proximity). With WAL-shipped
//! replication the RLS carries *measured* lag, so
//! [`ReplicaPolicy::BoundedStaleness`] can guarantee an upper bound on the
//! age of the data a query reads — failing over to any in-bound replica,
//! or erroring typed when none qualifies.

use gridfed_simnet::topology::Topology;
use gridfed_vendors::ConnectionString;
use gridfed_xspec::dict::TableLocation;
use std::cmp::Reverse;

/// How to choose among replicas of a logical table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaPolicy {
    /// The prototype's behaviour: first registered wins.
    #[default]
    First,
    /// Future-work extension: cheapest network path from the service host.
    Closest,
    /// Staleness-aware: highest data version wins; proximity breaks ties.
    /// Replicas without version bookkeeping count as version 0.
    Freshest,
    /// Guaranteed-staleness routing: only replicas whose measured
    /// replication age is at most this bound (virtual µs) are eligible;
    /// the freshest eligible replica wins (proximity breaks ties). When
    /// *no* replica meets the bound the query fails typed rather than
    /// silently serving stale data. Replicas with no published lag
    /// measurement count as age 0 (non-replicated tables are exact).
    BoundedStaleness(u64),
}

/// Measured staleness of one replica, as published to the RLS by its
/// replication stream: the data version it holds and how old that data is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaStaleness {
    /// Data version the replica holds.
    pub version: u64,
    /// Virtual-time age (µs) since the replica last verified it matched
    /// the warehouse head. Zero = caught up (or not a replicated table).
    pub age_us: u64,
}

fn host_of(loc: &TableLocation) -> String {
    ConnectionString::parse(&loc.url)
        .map(|c| gridfed_vendors::driver::server_address(&c).0)
        .unwrap_or_else(|_| "unknown-host".to_string())
}

impl ReplicaPolicy {
    /// Pick one location from `candidates`, `measure` giving each one's
    /// staleness as its replication stream last published it. `First`
    /// takes the first and `Closest` the cheapest network path from
    /// `from_host`; `Freshest` the highest version, proximity breaking
    /// ties. Under `BoundedStaleness(bound)` only replicas with `age_us <=
    /// bound` are eligible — the freshest eligible one wins — and when none
    /// qualifies the error carries the best (smallest) age on offer so the
    /// caller can raise a typed staleness-bound error. `Ok(None)` only
    /// when there is no candidate.
    pub fn choose<'a>(
        &self,
        candidates: &'a [TableLocation],
        from_host: &str,
        topology: &Topology,
        measure: impl Fn(&TableLocation) -> ReplicaStaleness,
    ) -> std::result::Result<Option<&'a TableLocation>, u64> {
        let distance = |loc: &TableLocation| topology.transfer(from_host, &host_of(loc), 1024);
        let freshest = |eligible: &dyn Fn(&TableLocation) -> bool| {
            let by_version = |loc: &&TableLocation| (Reverse(measure(loc).version), distance(loc));
            candidates
                .iter()
                .filter(|loc| eligible(loc))
                .min_by_key(by_version)
        };
        match *self {
            ReplicaPolicy::First => Ok(candidates.first()),
            ReplicaPolicy::Closest => Ok(candidates.iter().min_by_key(|loc| distance(loc))),
            ReplicaPolicy::Freshest => Ok(freshest(&|_| true)),
            ReplicaPolicy::BoundedStaleness(bound) => {
                match freshest(&|loc| measure(loc).age_us <= bound) {
                    Some(loc) => Ok(Some(loc)),
                    None => match candidates.iter().map(|loc| measure(loc).age_us).min() {
                        Some(best_age_us) => Err(best_age_us),
                        None => Ok(None),
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_simnet::link::Link;

    fn loc(db: &str, host: &str) -> TableLocation {
        TableLocation {
            database: db.into(),
            physical_table: "t".into(),
            url: format!("mysql://grid:grid@{host}:3306/{db}"),
            driver: "mysql".into(),
            vendor: "MySQL".into(),
            row_count: 0,
        }
    }

    /// No stream has published anything: every replica is version 0, age 0.
    fn unmeasured(_: &TableLocation) -> ReplicaStaleness {
        ReplicaStaleness::default()
    }

    /// Caught-up replicas at the versions `version_of` gives.
    fn at(
        version_of: impl Fn(&TableLocation) -> u64,
    ) -> impl Fn(&TableLocation) -> ReplicaStaleness {
        move |l| ReplicaStaleness {
            version: version_of(l),
            age_us: 0,
        }
    }

    #[test]
    fn first_policy_takes_first() {
        let candidates = vec![loc("a", "far"), loc("b", "near")];
        let topo = Topology::lan();
        let chosen = ReplicaPolicy::First
            .choose(&candidates, "near", &topo, unmeasured)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "a");
    }

    #[test]
    fn closest_policy_prefers_cheap_link() {
        let candidates = vec![loc("a", "far"), loc("b", "near")];
        let mut topo = Topology::lan();
        topo.set_link("client", "far", Link::wan());
        let chosen = ReplicaPolicy::Closest
            .choose(&candidates, "client", &topo, unmeasured)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "b");
        // co-located replica beats LAN
        let candidates = vec![loc("a", "other"), loc("b", "client")];
        let chosen = ReplicaPolicy::Closest
            .choose(&candidates, "client", &topo, unmeasured)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "b");
    }

    #[test]
    fn freshest_policy_prefers_higher_version() {
        // The fresher replica wins even across a worse link…
        let candidates = vec![loc("stale", "near"), loc("fresh", "far")];
        let mut topo = Topology::lan();
        topo.set_link("near", "far", Link::wan());
        let chosen = ReplicaPolicy::Freshest
            .choose(
                &candidates,
                "near",
                &topo,
                at(|l| if l.database == "fresh" { 2 } else { 1 }),
            )
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "fresh");
        // …and proximity breaks version ties.
        let chosen = ReplicaPolicy::Freshest
            .choose(&candidates, "near", &topo, at(|_| 3))
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "stale");
    }

    #[test]
    fn freshest_without_versions_degrades_to_closest() {
        let candidates = vec![loc("a", "far"), loc("b", "near")];
        let mut topo = Topology::lan();
        topo.set_link("client", "far", Link::wan());
        let chosen = ReplicaPolicy::Freshest
            .choose(&candidates, "client", &topo, unmeasured)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "b");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let topo = Topology::lan();
        for policy in [
            ReplicaPolicy::First,
            ReplicaPolicy::Closest,
            ReplicaPolicy::Freshest,
            ReplicaPolicy::BoundedStaleness(10),
        ] {
            assert_eq!(policy.choose(&[], "x", &topo, unmeasured), Ok(None));
        }
    }

    #[test]
    fn bounded_staleness_fails_over_to_the_in_bound_replica() {
        // The near replica is too stale; the bound forces failover to the
        // farther but fresher one.
        let candidates = vec![loc("laggy", "near"), loc("current", "far")];
        let mut topo = Topology::lan();
        topo.set_link("near", "far", Link::wan());
        let measure = |l: &TableLocation| {
            if l.database == "laggy" {
                ReplicaStaleness {
                    version: 5,
                    age_us: 900_000,
                }
            } else {
                ReplicaStaleness {
                    version: 7,
                    age_us: 40_000,
                }
            }
        };
        let chosen = ReplicaPolicy::BoundedStaleness(100_000)
            .choose(&candidates, "near", &topo, measure)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "current");
        // A generous bound admits both; the freshest (higher version) wins.
        let chosen = ReplicaPolicy::BoundedStaleness(10_000_000)
            .choose(&candidates, "near", &topo, measure)
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "current");
    }

    #[test]
    fn bounded_staleness_errors_when_no_replica_qualifies() {
        let candidates = vec![loc("a", "n1"), loc("b", "n2")];
        let topo = Topology::lan();
        let err = ReplicaPolicy::BoundedStaleness(1_000)
            .choose(&candidates, "client", &topo, |l| ReplicaStaleness {
                version: 1,
                age_us: if l.database == "a" { 5_000 } else { 9_000 },
            })
            .unwrap_err();
        assert_eq!(err, 5_000, "error carries the best age on offer");
    }

    #[test]
    fn non_bounded_policies_route_on_measured_versions() {
        let candidates = vec![loc("old", "near"), loc("new", "far")];
        let topo = Topology::lan();
        let chosen = ReplicaPolicy::Freshest
            .choose(
                &candidates,
                "near",
                &topo,
                at(|l| if l.database == "new" { 4 } else { 2 }),
            )
            .unwrap()
            .unwrap();
        assert_eq!(chosen.database, "new");
    }
}
