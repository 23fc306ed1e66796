//! Named nodes and the links between them — the tiered LHC computing model
//! in miniature.

use crate::cost::Cost;
use crate::link::Link;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The state a link is in right now, as reported by an installed
/// [`LinkConditions`] source (normally a fault plan running on virtual
/// time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkCondition {
    /// The link behaves as configured.
    Normal,
    /// The link is degraded: latency/overhead multiplied and bandwidth
    /// divided by the factor.
    Slow(f64),
    /// The link is down: no traffic passes in either direction.
    Partitioned,
}

/// A source of time-varying link conditions. Implemented by
/// `gridfed-faults::FaultPlan`; the topology itself stays a static
/// description of the network.
pub trait LinkConditions: Send + Sync {
    /// The current condition of the (symmetric) link between `a` and `b`.
    fn condition(&self, a: &str, b: &str) -> LinkCondition;
}

/// A network topology: named nodes plus per-pair links, with a default link
/// for unlisted pairs.
///
/// Node names are free-form (`"tier0.cern"`, `"tier2.caltech"`); the
/// federation layer names Clarens servers and database hosts after them.
///
/// An optional [`LinkConditions`] source can be installed with
/// [`Topology::set_conditions`]; when present, [`Topology::link`] degrades
/// slowed links and [`Topology::reachable`] reports partitions. Loopback
/// traffic (same node) is never conditioned.
pub struct Topology {
    default_link: Link,
    /// By the lesser node name, then the greater: looked up borrowed.
    links: HashMap<String, HashMap<String, Link>>,
    nodes: Vec<String>,
    conditions: RwLock<Option<Arc<dyn LinkConditions>>>,
}

impl Clone for Topology {
    fn clone(&self) -> Topology {
        Topology {
            default_link: self.default_link,
            links: self.links.clone(),
            nodes: self.nodes.clone(),
            conditions: RwLock::new(self.conditions.read().clone()),
        }
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("default_link", &self.default_link)
            .field("links", &self.links)
            .field("nodes", &self.nodes)
            .field(
                "conditions",
                &self.conditions.read().as_ref().map(|_| "<installed>"),
            )
            .finish()
    }
}

impl Topology {
    /// A topology where every pair uses `default_link`.
    pub fn uniform(default_link: Link) -> Topology {
        Topology {
            default_link,
            links: HashMap::new(),
            nodes: Vec::new(),
            conditions: RwLock::new(None),
        }
    }

    /// The paper's testbed: all nodes on one 100 Mbps LAN.
    pub fn lan() -> Topology {
        Topology::uniform(Link::lan_100mbps())
    }

    /// Register a node name (idempotent). Unregistered names still work;
    /// registration only aids enumeration.
    pub fn add_node(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        if !self.nodes.contains(&name) {
            self.nodes.push(name);
        }
        self
    }

    /// Known node names, in registration order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Set the link between two nodes (symmetric).
    pub fn set_link(&mut self, a: &str, b: &str, link: Link) -> &mut Self {
        self.add_node(a);
        self.add_node(b);
        let (lo, hi) = ordered(a, b);
        let far = self.links.entry(lo.to_string()).or_default();
        far.insert(hi.to_string(), link);
        self
    }

    /// Install a time-varying link-condition source (a fault plan).
    /// Takes `&self` so an already-shared topology can be conditioned.
    pub fn set_conditions(&self, conditions: Arc<dyn LinkConditions>) {
        *self.conditions.write() = Some(conditions);
    }

    /// Remove any installed link-condition source.
    pub fn clear_conditions(&self) {
        *self.conditions.write() = None;
    }

    /// Current condition of the link between two nodes. Loopback is always
    /// [`LinkCondition::Normal`].
    pub fn condition(&self, a: &str, b: &str) -> LinkCondition {
        if a == b {
            return LinkCondition::Normal;
        }
        match &*self.conditions.read() {
            Some(c) => c.condition(a, b),
            None => LinkCondition::Normal,
        }
    }

    /// Whether traffic can flow between two nodes right now. Callers that
    /// model RPCs or data pulls should check this before charging transfer
    /// costs; a partitioned pair should surface as an unreachable-host
    /// error, not an expensive transfer.
    pub fn reachable(&self, a: &str, b: &str) -> bool {
        !matches!(self.condition(a, b), LinkCondition::Partitioned)
    }

    /// The link between two nodes. Same-node traffic uses the loopback
    /// profile; unknown pairs fall back to the default link. A
    /// [`LinkCondition::Slow`] condition degrades the returned link.
    pub fn link(&self, a: &str, b: &str) -> Link {
        if a == b {
            return Link::local();
        }
        let (lo, hi) = ordered(a, b);
        let base = self.links.get(lo).and_then(|far| far.get(hi));
        let base = base.copied().unwrap_or(self.default_link);
        match self.condition(a, b) {
            LinkCondition::Slow(factor) => base.slowed(factor),
            _ => base,
        }
    }

    /// Transfer cost of moving `bytes` from node `a` to node `b`.
    pub fn transfer(&self, a: &str, b: &str, bytes: usize) -> Cost {
        self.link(a, b).transfer(bytes)
    }

    /// The node from `candidates` with the cheapest link to `from`
    /// (comparing the cost of a small probe message). Implements the
    /// paper's future-work item: "decide the closest available database
    /// (in terms of network connectivity) from a set of replicated
    /// databases."
    pub fn closest<'a>(&self, from: &str, candidates: &'a [String]) -> Option<&'a String> {
        candidates
            .iter()
            .min_by_key(|c| self.transfer(from, c, 1024))
    }
}

fn ordered<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_override_links() {
        let mut t = Topology::lan();
        t.set_link("tier0.cern", "tier2.caltech", Link::wan());
        assert_eq!(t.link("a", "b"), Link::lan_100mbps());
        assert_eq!(t.link("tier0.cern", "tier2.caltech"), Link::wan());
        // symmetric
        assert_eq!(t.link("tier2.caltech", "tier0.cern"), Link::wan());
    }

    #[test]
    fn loopback_for_same_node() {
        let t = Topology::lan();
        assert_eq!(t.link("x", "x"), Link::local());
    }

    #[test]
    fn closest_prefers_cheapest_link() {
        let mut t = Topology::lan();
        t.set_link("client", "far", Link::wan());
        let candidates = vec!["far".to_string(), "near".to_string()];
        assert_eq!(t.closest("client", &candidates), Some(&"near".to_string()));
        // co-located replica wins over LAN
        let candidates = vec!["near".to_string(), "client".to_string()];
        assert_eq!(
            t.closest("client", &candidates),
            Some(&"client".to_string())
        );
        assert_eq!(t.closest("client", &[]), None);
    }

    #[test]
    fn node_registration_is_idempotent() {
        let mut t = Topology::lan();
        t.add_node("a").add_node("a").add_node("b");
        assert_eq!(t.nodes(), &["a".to_string(), "b".to_string()]);
    }

    struct FixedConditions(LinkCondition);
    impl LinkConditions for FixedConditions {
        fn condition(&self, _a: &str, _b: &str) -> LinkCondition {
            self.0
        }
    }

    #[test]
    fn conditions_degrade_and_partition_links() {
        let t = Topology::lan();
        let base = t.link("a", "b");
        assert!(t.reachable("a", "b"));

        t.set_conditions(Arc::new(FixedConditions(LinkCondition::Slow(4.0))));
        let slowed = t.link("a", "b");
        assert_eq!(slowed.latency, base.latency.scale(4.0));
        assert!(t.transfer("a", "b", 10_000) > base.transfer(10_000));
        assert!(t.reachable("a", "b"));

        t.set_conditions(Arc::new(FixedConditions(LinkCondition::Partitioned)));
        assert!(!t.reachable("a", "b"));
        // loopback never partitions
        assert!(t.reachable("a", "a"));
        assert_eq!(t.link("a", "a"), Link::local());

        t.clear_conditions();
        assert!(t.reachable("a", "b"));
        assert_eq!(t.link("a", "b"), base);
    }

    #[test]
    fn cloned_topology_keeps_conditions() {
        let t = Topology::lan();
        t.set_conditions(Arc::new(FixedConditions(LinkCondition::Partitioned)));
        let c = t.clone();
        assert!(!c.reachable("a", "b"));
    }
}
