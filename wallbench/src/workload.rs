//! The workloads: why each exists, and the seeded inputs each sends.
//!
//! Everything the program sees (names, values, attribute values, filters
//! and the order of ops) is drawn from the run's `--seed`; the same seed
//! gives the same inputs.

use rndi::core::attrs::Attributes;
use rndi::core::context::{SearchControls, SearchScope};
use rndi::core::filter::Filter;
use rndi::core::name::CompositeName;
use rndi::core::op::NamingOp;
use rndi::core::value::BoundValue;

use crate::trace::Kind;

/// Load model shared by every workload: one process generates all load;
/// callers are closed-loop (each waits for its reply) with no think time.
/// The paper's 50 ms pause between ops would cap two callers at 40 op/s
/// and measure the sleep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One HDNS server (the `serve_hdns` composition) with 16384 names of
    /// ~64 B values; two callers share one `NetClient` pipeline and send
    /// uniform lookups. This is the paper's lookup figure and the wire
    /// lookup path: client pipeline, codec, socket and event loop do
    /// nearly all the work while the HDNS write path, the router and the
    /// cluster sit idle.
    PointRead,
    /// The same server; two callers send 80% rebinds and 20% lookups over
    /// disjoint key ranges. The same wire layers as `point-read`, but the
    /// HDNS realm write (in-process group ordering plus event-hub firing)
    /// does most of the work, so a read-path gain that costs writes shows.
    WriteHeavy,
    /// Four HDNS shards (`serve_sharded_hdns`) behind
    /// `ShardRouter::connect`; 4096 names carry one of 32 `type` values.
    /// One caller sends 90% lookups and 10% root subtree searches
    /// `(type=tN)` of 128 hits each. Attribute discovery across registries
    /// is the job sharding exists for: router fan-out, per-leg wire, large
    /// replies and the HDNS search scan dominate, and the slowest of four
    /// legs sets a search's time.
    Discovery,
    /// Three replicated nodes (`serve_cluster_hdns`) at the default
    /// `rndi.cluster.*` and `rndi.net.*` settings; one caller with a
    /// connection to the view coordinator `node-0` and one to follower
    /// `node-2`. Rebinds alternate between the two connections and each
    /// is followed by a lookup on the follower. The only workload where
    /// the cluster plane does the work.
    Replicated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::WriteHeavy,
        Workload::Discovery,
        Workload::Replicated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::WriteHeavy => "write-heavy",
            Workload::Discovery => "discovery",
            Workload::Replicated => "replicated",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn callers(self) -> usize {
        match self {
            Workload::PointRead | Workload::WriteHeavy => 2,
            Workload::Discovery | Workload::Replicated => 1,
        }
    }

    /// Whether callers write (and so track what each key may hold).
    pub fn writes(self) -> bool {
        matches!(self, Workload::WriteHeavy | Workload::Replicated)
    }

    /// Names preloaded during set-up.
    pub fn names(self) -> usize {
        match self {
            Workload::PointRead | Workload::WriteHeavy => 16384,
            Workload::Discovery => 4096,
            // Every key is written through group ordering at tens of ms.
            Workload::Replicated => 64,
        }
    }

    /// Whether `BENCHMARK.json` lists the workload. Two are left out and
    /// still run and report everything:
    /// - `replicated`: at the default settings on a 2-core host, some runs
    ///   fail every rebind sent through the follower after the 250 ms
    ///   backend budget, and a gated workload must be one on which no
    ///   operation fails;
    /// - `write-heavy`: its rebind p50 varied 3x between runs of the same
    ///   build on a shared 2-vCPU host (quartile spread 0.46 over ten
    ///   runs), wider than any bound the gate allows. The HDNS write path
    ///   stays gated through `point-read`'s `setup_s`, which is dominated
    ///   by its 16384 preload binds.
    pub fn gated(self) -> bool {
        matches!(self, Workload::PointRead | Workload::Discovery)
    }

    /// The op kind the workload is built around: its `main_op_*` metrics.
    pub fn main_kind(self) -> Kind {
        match self {
            Workload::PointRead => Kind::Read,
            Workload::WriteHeavy | Workload::Replicated => Kind::Write,
            Workload::Discovery => Kind::Search,
        }
    }
}

/// Distinct `type` attribute values in `discovery`; 4096 / 32 = 128 names
/// carry each.
pub const TYPES: usize = 32;
pub const VALUE_LEN: usize = 64;

/// splitmix64: small, seedable, and good enough to pick keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed; distinct `stream`s give
    /// independent sequences (one per caller, one for the namespace).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// `true` with probability `pct`/100.
    pub fn percent(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    pub fn value(&mut self) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..VALUE_LEN)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }
}

/// The preloaded namespace.
pub struct Namespace {
    pub names: Vec<String>,
    pub values: Vec<String>,
    /// `discovery` only: the `type` index of each name.
    pub types: Vec<usize>,
    /// `discovery` only: per type, the `(name, value)` pairs a search
    /// for it must return, sorted by name.
    pub by_type: Vec<Vec<(String, String)>>,
}

impl Namespace {
    pub fn generate(workload: Workload, seed: u64) -> Namespace {
        let mut rng = Rng::new(seed, 0);
        let n = workload.names();
        // The index keeps names distinct; the random tag spreads them
        // over shards differently for every seed.
        let names: Vec<String> = (0..n)
            .map(|i| format!("n{i:05}-{:08x}", rng.next_u64() as u32))
            .collect();
        let values: Vec<String> = (0..n).map(|_| rng.value()).collect();
        let (types, by_type) = if workload == Workload::Discovery {
            // A seeded shuffle, so every type holds exactly n / TYPES names.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut types = vec![0; n];
            for (pos, &i) in order.iter().enumerate() {
                types[i] = pos % TYPES;
            }
            let mut by_type = vec![Vec::new(); TYPES];
            for i in 0..n {
                by_type[types[i]].push((names[i].clone(), values[i].clone()));
            }
            for set in &mut by_type {
                set.sort();
            }
            (types, by_type)
        } else {
            (Vec::new(), Vec::new())
        };
        Namespace {
            names,
            values,
            types,
            by_type,
        }
    }

    /// The set-up op that binds name `i`.
    pub fn preload_op(&self, i: usize) -> NamingOp {
        let name = CompositeName::from_components([self.names[i].as_str()]);
        let value = BoundValue::str(self.values[i].as_str());
        if self.types.is_empty() {
            NamingOp::bind(name, value)
        } else {
            let attrs = Attributes::new().with("type", type_value(self.types[i]));
            NamingOp::bind_with_attrs(name, value, attrs)
        }
    }
}

pub fn type_value(t: usize) -> String {
    format!("t{t}")
}

pub fn lookup(name: &str) -> NamingOp {
    NamingOp::lookup(CompositeName::from_components([name]))
}

pub fn rebind(name: &str, value: &str) -> NamingOp {
    NamingOp::rebind(
        CompositeName::from_components([name]),
        BoundValue::str(value),
    )
}

/// A root subtree search for one `type`, returning values with the hits.
pub fn search(t: usize) -> (String, NamingOp) {
    let filter = format!("(type={})", type_value(t));
    let op = NamingOp::search(
        CompositeName::empty(),
        Filter::parse(&filter).expect("the filter grammar accepts (attr=value)"),
        SearchControls {
            scope: SearchScope::Subtree,
            return_values: true,
            ..SearchControls::default()
        },
    );
    (filter, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Namespace::generate(Workload::Discovery, 7);
        let b = Namespace::generate(Workload::Discovery, 7);
        let c = Namespace::generate(Workload::Discovery, 8);
        assert_eq!(a.names, b.names);
        assert_eq!(a.values, b.values);
        assert_eq!(a.types, b.types);
        assert_ne!(a.names, c.names);
        assert_ne!(a.types, c.types);
    }

    #[test]
    fn discovery_types_partition_the_names_evenly() {
        let ns = Namespace::generate(Workload::Discovery, 1);
        assert_eq!(ns.by_type.len(), TYPES);
        for set in &ns.by_type {
            assert_eq!(set.len(), 4096 / TYPES);
        }
        let distinct: std::collections::BTreeSet<_> = ns.names.iter().collect();
        assert_eq!(distinct.len(), 4096);
        assert!(ns.values.iter().all(|v| v.len() == VALUE_LEN));
    }

    #[test]
    fn rng_below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(3, 1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(Workload::ALL
            .iter()
            .all(|w| Workload::parse(w.name()) == Some(*w)));
    }
}
