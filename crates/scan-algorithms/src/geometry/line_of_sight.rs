//! Line of sight (Table 1: `O(1)` steps on the scan model).
//!
//! Given an observer and terrain altitudes along a ray, a point is
//! visible exactly when its vertical angle from the observer exceeds
//! the angle of every point in front of it — one `max-scan`.
//! The multi-ray version runs all rays at once with a single
//! *segmented* max-scan.

use scan_core::op::Max;
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

/// Visibility of each terrain sample along one ray. `altitudes[k]` is
/// the terrain height at distance `k + 1` from the observer, whose eye
/// is at height `observer`.
pub fn line_of_sight_ctx(ctx: &mut Ctx, observer: f64, altitudes: &[f64]) -> Vec<bool> {
    let n = altitudes.len();
    let idx = ctx.iota(n);
    let angles = ctx.zip(altitudes, &idx, |alt, k| {
        (alt - observer) / (k as f64 + 1.0)
    });
    let best_before = ctx.scan::<Max, _>(&angles);
    ctx.zip(&angles, &best_before, |a, b| a > b)
}

/// Single-ray line of sight with the default scan-model machine.
pub fn line_of_sight(observer: f64, altitudes: &[f64]) -> Vec<bool> {
    let mut ctx = Ctx::new(Model::Scan);
    line_of_sight_ctx(&mut ctx, observer, altitudes)
}

/// Many rays at once: `rays` holds each ray's altitude samples; all
/// rays share the observer height. One segmented max-scan resolves
/// every ray — still a constant number of program steps.
pub fn line_of_sight_rays_ctx(ctx: &mut Ctx, observer: f64, rays: &[Vec<f64>]) -> Vec<Vec<bool>> {
    let lengths: Vec<usize> = rays.iter().map(Vec::len).collect();
    let flat: Vec<f64> = rays.iter().flatten().copied().collect();
    let segs = Segments::from_lengths(&lengths);
    let ones = ctx.constant(flat.len(), 1usize);
    let dist = ctx.seg_scan::<scan_core::op::Sum, _>(&ones, &segs);
    let angles = ctx.zip(&flat, &dist, |alt, k| (alt - observer) / (k as f64 + 1.0));
    let best_before = ctx.seg_scan::<Max, _>(&angles, &segs);
    // A segment head's exclusive scan yields the identity (-∞ via the
    // float identity of Max on a fresh segment — here 0-initialised
    // identity of the pair operator), so compare against -∞ explicitly.
    let visible: Vec<bool> = (0..flat.len())
        .map(|i| {
            let prior = if segs.is_head(i) {
                f64::NEG_INFINITY
            } else {
                best_before[i]
            };
            angles[i] > prior
        })
        .collect();
    ctx.charge_elementwise_op(flat.len());
    // Unflatten.
    let mut out = Vec::with_capacity(rays.len());
    let mut pos = 0;
    for &len in &lengths {
        out.push(visible[pos..pos + len].to_vec());
        pos += len;
    }
    out
}

/// Multi-ray line of sight with the default scan-model machine.
pub fn line_of_sight_rays(observer: f64, rays: &[Vec<f64>]) -> Vec<Vec<bool>> {
    let mut ctx = Ctx::new(Model::Scan);
    line_of_sight_rays_ctx(&mut ctx, observer, rays)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(observer: f64, altitudes: &[f64]) -> Vec<bool> {
        let mut best = f64::NEG_INFINITY;
        altitudes
            .iter()
            .enumerate()
            .map(|(k, &alt)| {
                let a = (alt - observer) / (k as f64 + 1.0);
                let vis = a > best;
                best = best.max(a);
                vis
            })
            .collect()
    }

    #[test]
    fn flat_terrain_at_eye_level_only_first_visible() {
        // Observer at terrain height: every sample subtends angle 0, so
        // only the nearest one beats the running maximum.
        let alt = vec![0.0; 10];
        let vis = line_of_sight(0.0, &alt);
        assert!(vis[0]);
        assert!(vis[1..].iter().all(|&v| !v));
    }

    #[test]
    fn elevated_observer_sees_all_flat_terrain() {
        // From above, nearer flat ground never hides farther ground:
        // the depression angle shrinks with distance.
        let alt = vec![0.0; 10];
        let vis = line_of_sight(10.0, &alt);
        assert!(vis.iter().all(|&v| v));
    }

    #[test]
    fn rising_terrain_all_visible() {
        let alt: Vec<f64> = (0..10).map(|k| (k * k) as f64).collect();
        let vis = line_of_sight(0.0, &alt);
        assert!(vis.iter().all(|&v| v));
    }

    #[test]
    fn hill_shadows_valley() {
        //      peak at 3 shadows the lower ground behind it
        let alt = [1.0, 2.0, 10.0, 1.0, 1.0, 20.0];
        let vis = line_of_sight(0.0, &alt);
        assert_eq!(vis, reference(0.0, &alt));
        assert!(vis[2]);
        assert!(!vis[3] && !vis[4]);
    }

    #[test]
    fn matches_reference_on_random_terrain() {
        let mut x = 77u64;
        let alt: Vec<f64> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 40) % 1000) as f64 / 10.0
            })
            .collect();
        assert_eq!(line_of_sight(42.0, &alt), reference(42.0, &alt));
    }

    #[test]
    fn multi_ray_matches_single_rays() {
        let rays = vec![
            vec![1.0, 5.0, 2.0, 9.0],
            vec![3.0],
            vec![],
            vec![0.0, 0.0, 7.0],
        ];
        let got = line_of_sight_rays(1.5, &rays);
        for (ray, vis) in rays.iter().zip(&got) {
            assert_eq!(vis, &line_of_sight(1.5, ray));
        }
    }

    #[test]
    fn constant_steps_for_any_ray_count() {
        let ops_for = |k: usize| {
            let rays: Vec<Vec<f64>> = (0..k).map(|i| vec![i as f64; 6]).collect();
            let mut ctx = Ctx::new(Model::Scan);
            line_of_sight_rays_ctx(&mut ctx, 0.0, &rays);
            ctx.stats().ops()
        };
        assert_eq!(ops_for(2), ops_for(64));
    }

    #[test]
    fn empty_terrain() {
        assert!(line_of_sight(5.0, &[]).is_empty());
    }
}
