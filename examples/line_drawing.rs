//! Figure 9 live: draw the paper's three example lines by processor
//! allocation, render them on an ASCII grid, and run the line-of-sight
//! kernel on a synthetic ridge.
//!
//! Run with: `cargo run --example line_drawing`

use blelloch_scan::algorithms::geometry::{draw_lines, line_of_sight, render_ascii};
use blelloch_scan::pram::{Ctx, Model};

fn main() {
    // The exact endpoints of Figure 9.
    let lines = [((11, 2), (23, 14)), ((2, 13), (13, 8)), ((16, 4), (31, 4))];
    let mut ctx = Ctx::new(Model::Scan);
    let pixels = blelloch_scan::algorithms::geometry::line_draw::draw_lines_ctx(&mut ctx, &lines);
    println!("Figure 9 — three lines, one processor per pixel:\n");
    println!("{}", render_ascii(&pixels, 32, 16));
    for l in 0..lines.len() {
        let count = pixels.iter().filter(|p| p.line == l).count();
        println!("line {l}: {count} pixels");
    }
    println!("\nprogram steps: {} (O(1) — §2.4.1)", ctx.stats());

    // Line of sight over a ridge (Table 1's O(1)-step entry).
    let terrain: Vec<f64> = (1..40)
        .map(|k| {
            let x = k as f64;
            // A hill at distance 12 and a taller one at 30.
            12.0 * (-(x - 12.0).powi(2) / 18.0).exp() + 25.0 * (-(x - 30.0).powi(2) / 30.0).exp()
        })
        .collect();
    let visible = line_of_sight(2.0, &terrain);
    println!("\nLine of sight from height 2.0 (█ visible, · hidden):");
    let profile: String = terrain
        .iter()
        .zip(&visible)
        .map(|(_, &v)| if v { '█' } else { '·' })
        .collect();
    println!("{profile}");
    let visible_count = visible.iter().filter(|&&v| v).count();
    println!(
        "{} of {} samples visible — the near hill shadows the valley.",
        visible_count,
        terrain.len()
    );
    assert!(draw_lines(&lines).len() == pixels.len());
}
