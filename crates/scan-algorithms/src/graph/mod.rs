//! Graph algorithms on the segmented graph representation
//! (§2.3.2–§2.3.3 and the Table 1 graph rows).

pub mod biconnected;
pub mod components;
pub mod mis;
pub mod mst;
pub mod reference;
pub mod segmented;
pub mod star_merge;

pub use biconnected::{biconnected_components, BiconnectedResult};
pub use components::connected_components;
pub use mis::maximal_independent_set;
pub use mst::{minimum_spanning_tree, MstResult};
pub use segmented::SegGraph;
pub use star_merge::{star_merge, StarMergeResult};
