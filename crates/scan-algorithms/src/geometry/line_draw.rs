//! Line drawing by processor allocation (§2.4.1, Figure 9).
//!
//! "The basic idea of the routine is for each line to allocate a
//! processor for each pixel in the line, and then for each allocated
//! pixel to determine, in parallel, its final position in the grid."
//! The pixel count of a line is `max(|Δx|, |Δy|)` plus the starting
//! endpoint — the same pixels the serial DDA produces. The whole
//! routine is `O(1)` program steps.

use scan_pram::{Ctx, Model};

/// One drawn pixel: grid position plus the line that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pixel {
    /// Grid x.
    pub x: i64,
    /// Grid y.
    pub y: i64,
    /// Index of the line segment this pixel belongs to.
    pub line: usize,
}

/// A line segment `((x0, y0), (x1, y1))` on the integer grid.
pub type Segment = ((i64, i64), (i64, i64));

/// Draw every line segment on a step-counting machine. Each segment is
/// `((x0, y0), (x1, y1))`; the result lists each line's pixels in
/// order, lines concatenated.
pub fn draw_lines_ctx(ctx: &mut Ctx, lines: &[Segment]) -> Vec<Pixel> {
    let l = lines.len();
    if l == 0 {
        return Vec::new();
    }
    // Pixels per line: max of the x and y differences, plus one for the
    // starting endpoint (the DDA draws both endpoints).
    let endpoints: Vec<(i64, i64, i64, i64)> = lines
        .iter()
        .map(|&((x0, y0), (x1, y1))| (x0, y0, x1, y1))
        .collect();
    let counts: Vec<usize> = ctx.map(&endpoints, |(x0, y0, x1, y1)| {
        ((x1 - x0).abs().max((y1 - y0).abs()) + 1) as usize
    });
    // Allocate a processor per pixel and distribute the endpoints.
    let ends = ctx.distribute(&endpoints, &counts);
    let owner = {
        let owners = ctx.iota(l);
        ctx.distribute(&owners, &counts)
    };
    // Position within the line, "determined with a +-scan".
    let alloc = ctx.allocate(&counts);
    let ones = ctx.constant(alloc.total, 1usize);
    let k = ctx.seg_scan::<scan_core::op::Sum, _>(&ones, &alloc.segments);
    // Each pixel computes its own (x, y): the DDA step rounded to the
    // nearest grid point.
    let pixels = (0..alloc.total)
        .map(|i| {
            let (x0, y0, x1, y1) = ends[i];
            let steps = (x1 - x0).abs().max((y1 - y0).abs());
            let t = k[i] as i64;
            let (x, y) = if steps == 0 {
                (x0, y0)
            } else {
                (
                    x0 + div_round(t * (x1 - x0), steps),
                    y0 + div_round(t * (y1 - y0), steps),
                )
            };
            Pixel {
                x,
                y,
                line: owner[i],
            }
        })
        .collect();
    ctx.charge_elementwise_op(alloc.total);
    pixels
}

/// Rounded division (ties toward +∞), exact for the DDA interpolation.
fn div_round(num: i64, den: i64) -> i64 {
    // den > 0 by construction.
    (2 * num + den).div_euclid(2 * den)
}

/// Draw with the default scan-model machine.
pub fn draw_lines(lines: &[Segment]) -> Vec<Pixel> {
    let mut ctx = Ctx::new(Model::Scan);
    draw_lines_ctx(&mut ctx, lines)
}

/// Render pixels on an ASCII grid (for the Figure 9 reproduction and
/// the example binary). Pixels outside the grid are ignored; a pixel
/// shared by several lines shows the last one — "this will require the
/// simplest form of concurrent-write (one of the values gets written)".
pub fn render_ascii(pixels: &[Pixel], width: usize, height: usize) -> String {
    let mut grid = vec![vec![b'.'; width]; height];
    for p in pixels {
        if p.x >= 0 && (p.x as usize) < width && p.y >= 0 && (p.y as usize) < height {
            grid[p.y as usize][p.x as usize] = b'0' + (p.line % 10) as u8;
        }
    }
    // y grows upward, like the paper's figure.
    grid.iter()
        .rev()
        .map(|row| String::from_utf8_lossy(row).into_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial DDA the paper cites as the reference output.
    fn dda(x0: i64, y0: i64, x1: i64, y1: i64) -> Vec<(i64, i64)> {
        let steps = (x1 - x0).abs().max((y1 - y0).abs());
        (0..=steps)
            .map(|t| {
                if steps == 0 {
                    (x0, y0)
                } else {
                    (
                        x0 + div_round(t * (x1 - x0), steps),
                        y0 + div_round(t * (y1 - y0), steps),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn figure9_lines() {
        // Endpoints (11,2)–(23,14), (2,13)–(13,8), (16,4)–(31,4).
        let lines = [((11, 2), (23, 14)), ((2, 13), (13, 8)), ((16, 4), (31, 4))];
        let pixels = draw_lines(&lines);
        // The paper allocates max(|Δx|,|Δy|) processors per line and
        // quotes 12, 11 and 16 pixels; drawing both endpoints (as the
        // DDA reference does) gives 13, 12 and 16 grid points, of which
        // the third line's 16 matches the paper exactly.
        let counts: Vec<usize> = (0..3)
            .map(|l| pixels.iter().filter(|p| p.line == l).count())
            .collect();
        assert_eq!(counts, vec![13, 12, 16]);
        // Every line reproduces its serial DDA pixels, in order.
        for (l, &((x0, y0), (x1, y1))) in lines.iter().enumerate() {
            let got: Vec<(i64, i64)> = pixels
                .iter()
                .filter(|p| p.line == l)
                .map(|p| (p.x, p.y))
                .collect();
            assert_eq!(got, dda(x0, y0, x1, y1), "line {l}");
        }
    }

    #[test]
    fn diagonal_line_exact() {
        let pixels = draw_lines(&[((0, 0), (4, 4))]);
        let got: Vec<(i64, i64)> = pixels.iter().map(|p| (p.x, p.y)).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn degenerate_point_line() {
        let pixels = draw_lines(&[((3, 7), (3, 7))]);
        assert_eq!(pixels.len(), 1);
        assert_eq!((pixels[0].x, pixels[0].y), (3, 7));
    }

    #[test]
    fn steep_and_reversed_lines() {
        for &(a, b) in &[((0, 0), (2, 9)), ((5, 5), (0, 0)), ((-3, 4), (-3, -4))] {
            let pixels = draw_lines(&[(a, b)]);
            let got: Vec<(i64, i64)> = pixels.iter().map(|p| (p.x, p.y)).collect();
            assert_eq!(got, dda(a.0, a.1, b.0, b.1));
        }
    }

    #[test]
    fn constant_step_complexity() {
        // O(1) vector operations no matter how many lines/pixels.
        let ops_for = |k: usize| {
            let lines: Vec<((i64, i64), (i64, i64))> =
                (0..k as i64).map(|i| ((0, i), (9, i))).collect();
            let mut ctx = Ctx::new(Model::Scan);
            draw_lines_ctx(&mut ctx, &lines);
            ctx.stats().ops()
        };
        assert_eq!(ops_for(4), ops_for(128));
    }

    #[test]
    fn ascii_render() {
        let pixels = draw_lines(&[((0, 0), (3, 0))]);
        let art = render_ascii(&pixels, 4, 2);
        assert_eq!(art, "....\n0000");
    }

    #[test]
    fn empty_input() {
        assert!(draw_lines(&[]).is_empty());
    }
}
