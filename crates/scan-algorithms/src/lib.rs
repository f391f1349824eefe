//! # scan-algorithms
//!
//! The algorithm suite of *Scans as Primitive Parallel Operations*:
//! every example algorithm the paper describes (§2), the broader Table 1
//! families, and the baselines they are compared against.
//!
//! Every algorithm is written against [`scan_pram::Ctx`], the
//! step-counting vector machine, so one implementation yields both the
//! answer and its measured step complexity under any P-RAM variant.
//! Convenience wrappers that hide the context are provided throughout.
//!
//! | paper section | algorithm | module |
//! |---------------|-----------|--------|
//! | §2.2.1 | split radix sort | [`sort::radix`] |
//! | §2.3.1 | segmented quicksort | [`mod@sort::quicksort`] |
//! | Table 4 | bitonic sort (baseline) | [`sort::bitonic`] |
//! | §2.3.2 | segmented graph representation | [`graph::segmented`] |
//! | §2.3.3 | star merge + minimum spanning tree | [`mod@graph::star_merge`], [`graph::mst`] |
//! | Table 1 | connected components | [`graph::components`] |
//! | Table 1 | maximal independent set | [`graph::mis`] |
//! | §2.4.1 | line drawing | [`geometry::line_draw`] |
//! | Table 1 | line of sight | [`mod@geometry::line_of_sight`] |
//! | Table 1 | convex hull (quickhull) | [`geometry::hull`] |
//! | Table 1 | k-d tree construction | [`geometry::kdtree`] |
//! | Table 1 | closest pair in the plane | [`mod@geometry::closest_pair`] |
//! | §2.5.1 | halving merge | [`merge::halving`] |
//! | Table 1 | merge baselines | [`merge::baseline`] |
//! | Table 5 | list ranking | [`list_rank`] |
//! | Table 5 | tree computations (Euler tour) | [`tree_ops`] |
//! | Table 1 | matrix operations, linear solver | [`matrix`] |
//! | appendix | binary addition & polynomial evaluation as scans | [`numeric`] |

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod game_search;
pub mod geometry;
pub mod graph;
pub mod list_rank;
pub mod matrix;
pub mod matrix_sparse;
pub mod numeric;
pub mod tree_ops;
mod util;

pub mod merge;

pub mod sort;
