#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-flow — one Dinic kernel, three exact capacity backends
//!
//! The bottleneck decomposition (Definition 2 of the paper) and the BD
//! Allocation Mechanism (Definition 5) are both defined through max-flow /
//! min-cut arguments on small auxiliary networks whose capacities are agent
//! weights and weights divided by α-ratios — i.e. exact rationals. This crate
//! implements Dinic's algorithm **once**, as [`Network<C>`] generic over the
//! [`Capacity`] backend trait, with first-class infinite capacities for the
//! `B×C` middle edges and the residual-reachability queries the
//! decomposition needs:
//!
//! * [`Network::max_flow`] — blocking-flow Dinic. Termination does not
//!   depend on capacity magnitudes (≤ `V` phases, ≤ `E` augmentations per
//!   phase), so exact arithmetic is safe.
//! * [`Network::min_cut_source_side`] — the s-side of a minimum cut,
//!   used by the Dinkelbach step to extract a violating set.
//! * [`Network::residual_reaches_sink`] — the set of nodes with a
//!   residual path *to* `t`, used to extract the maximal tight set
//!   (= maximal bottleneck).
//!
//! Three backends instantiate the kernel, all exact:
//!
//! * [`FlowNetwork`] = `Network<Rational>` — unscaled exact capacities:
//!   the Definition-5 allocation and `prs-bd`'s reference oracle.
//! * [`NetworkInt`] = `Network<BigInt>` — uniformly scaled integers for
//!   every certification round that outgrows `i128` (same decisions,
//!   cheaper arithmetic than `Rational`).
//! * [`NetworkI128`] = `Network<i128>` — the checked machine-word fast tier
//!   of the scaled-integer certifier; overflow poisons the run (see
//!   [`network_i128`]) and promotes the round back to [`NetworkInt`].
//!
//! The backend modules contribute only a `Capacity` impl, a type alias and
//! the engine's `prs_trace` counters (`flow.<engine>_{bfs_phases,
//! augmenting_paths,max_flows}`); the traversal order — hence the
//! decomposition output — is bit-identical across engines by construction.
//! The kernel counts network builds and arena reuses
//! (`flow.networks_{built,reused}`). Every counter is read by its registered
//! name through `prs_trace` (`prs audit --stats`), and [`testkit`] holds the
//! shared engine-parameterized test suite.

pub mod capacity;
pub mod kernel;
pub mod network;
pub mod network_i128;
pub mod network_int;
pub mod testkit;

pub use capacity::{Cap, Capacity};
pub use kernel::{EdgeId, Network, NodeId, SeedArc};
pub use network::FlowNetwork;
pub use network_i128::{CapI128, NetworkI128};
pub use network_int::{CapInt, NetworkInt};
