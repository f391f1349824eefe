//! Branch-and-bound game search (§2.4–§2.5): the paper motivates
//! processor allocation with "a brute force chess-playing algorithm
//! that executes a fixed-depth search of possible moves ... Since the
//! algorithm dynamically decides how many next moves to generate,
//! depending on the position, we need to dynamically allocate new
//! elements," and motivates load balancing with the pruning of the
//! bounding phase.
//!
//! This module runs that exact pattern on a complete, verifiable game:
//! data-parallel minimax over tic-tac-toe. Each search wave holds the
//! whole frontier in one vector; every position counts its legal moves,
//! one `allocate` creates the children, a segmented copy distributes
//! each parent across its segment, and the rank within the segment
//! (one segmented `+-scan`) selects the move. The backward pass is one
//! segmented min- or max-reduce per level — the paper's minimax
//! ("trying to minimize the benefit of one player and maximize the
//! benefit of the other") as segmented distributes.

use scan_core::op::{Max, Min, Sum};
use scan_pram::{Ctx, Model};

/// A tic-tac-toe position: bitboards for X and O plus the side to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Board {
    /// Cells occupied by X (bits 0..9, row-major).
    pub x: u16,
    /// Cells occupied by O.
    pub o: u16,
    /// Whether X is to move.
    pub x_to_move: bool,
}

const LINES: [u16; 8] = [
    0b000_000_111,
    0b000_111_000,
    0b111_000_000,
    0b001_001_001,
    0b010_010_010,
    0b100_100_100,
    0b100_010_001,
    0b001_010_100,
];

const FULL: u16 = 0b111_111_111;

impl Board {
    /// The empty board, X to move.
    pub fn empty() -> Board {
        Board {
            x: 0,
            o: 0,
            x_to_move: true,
        }
    }

    /// Build from a string of 9 characters (`X`, `O`, `.`), row-major.
    ///
    /// # Panics
    /// On malformed input or overlapping marks.
    pub fn parse(s: &str, x_to_move: bool) -> Board {
        let cells: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(cells.len(), 9, "need 9 cells");
        let mut b = Board {
            x: 0,
            o: 0,
            x_to_move,
        };
        for (i, c) in cells.iter().enumerate() {
            match c {
                'X' | 'x' => b.x |= 1 << i,
                'O' | 'o' => b.o |= 1 << i,
                '.' => {}
                _ => panic!("bad cell {c}"),
            }
        }
        assert_eq!(b.x & b.o, 0, "overlapping marks");
        b
    }

    fn winner(self) -> Option<bool> {
        for line in LINES {
            if self.x & line == line {
                return Some(true);
            }
            if self.o & line == line {
                return Some(false);
            }
        }
        None
    }

    /// Terminal score from X's perspective: `+1` X win, `−1` O win,
    /// `0` draw; `None` while the game is live.
    pub fn terminal_score(self) -> Option<i8> {
        match self.winner() {
            Some(true) => Some(1),
            Some(false) => Some(-1),
            None if (self.x | self.o) == FULL => Some(0),
            None => None,
        }
    }

    /// Number of legal moves (0 when terminal).
    pub fn move_count(self) -> usize {
        if self.terminal_score().is_some() {
            0
        } else {
            (FULL & !(self.x | self.o)).count_ones() as usize
        }
    }

    /// Apply the `k`-th legal move (by ascending cell index).
    ///
    /// # Panics
    /// If `k` is out of range.
    pub fn apply_nth(self, k: usize) -> Board {
        let mut free = FULL & !(self.x | self.o);
        for _ in 0..k {
            free &= free - 1; // clear lowest set bit
        }
        assert!(free != 0, "move index out of range");
        let cell = free & free.wrapping_neg();
        if self.x_to_move {
            Board {
                x: self.x | cell,
                o: self.o,
                x_to_move: false,
            }
        } else {
            Board {
                x: self.x,
                o: self.o | cell,
                x_to_move: true,
            }
        }
    }
}

/// Statistics from a parallel search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Minimax value of the root, from X's perspective.
    pub value: i8,
    /// Nodes expanded per wave (the frontier sizes).
    pub wave_sizes: Vec<usize>,
}

/// Fixed-depth data-parallel minimax on a step-counting machine.
/// `max_depth ≥ 9` makes the search exact for tic-tac-toe; shallower
/// cutoffs score live positions 0.
pub fn parallel_minimax_ctx(ctx: &mut Ctx, root: Board, max_depth: usize) -> SearchResult {
    // Forward phase: expand wave by wave, recording each level.
    struct Level {
        boards: Vec<Board>,
        counts: Vec<usize>,
        terminal: Vec<Option<i8>>,
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut frontier = vec![root];
    let mut wave_sizes = Vec::new();
    for depth in 0..=max_depth {
        wave_sizes.push(frontier.len());
        let terminal: Vec<Option<i8>> = ctx.map(&frontier, |b| b.terminal_score());
        // The bounding phase: positions that are decided stop branching
        // (their counts drop to zero — the paper's pruning).
        let counts: Vec<usize> = if depth == max_depth {
            ctx.constant(frontier.len(), 0usize)
        } else {
            ctx.map(&frontier, |b: Board| b.move_count())
        };
        // §2.4: dynamically allocate one processor per child move.
        let parents = ctx.distribute(&frontier, &counts);
        let alloc = ctx.allocate(&counts);
        let ones = ctx.constant(alloc.total, 1usize);
        let move_index = ctx.seg_scan::<Sum, _>(&ones, &alloc.segments);
        let children: Vec<Board> = parents
            .iter()
            .zip(&move_index)
            .map(|(&b, &k)| b.apply_nth(k))
            .collect();
        ctx.charge_elementwise_op(alloc.total);
        levels.push(Level {
            boards: frontier,
            counts,
            terminal,
        });
        frontier = children;
        if frontier.is_empty() {
            break;
        }
    }
    // Backward phase: per level, the expanded positions take a
    // segmented min/max over their children's values — a constant
    // number of segmented operations per level.
    let mut child_values: Vec<i8> = frontier
        .iter()
        .map(|b| b.terminal_score().unwrap_or(0))
        .collect();
    ctx.charge_elementwise_op(frontier.len());
    for level in levels.iter().rev() {
        let alloc = scan_core::allocate(&level.counts);
        debug_assert_eq!(alloc.total, child_values.len());
        // One segmented reduce per player; each parent then selects its
        // own by side to move (both are single vector steps).
        let maxs = if alloc.total > 0 {
            ctx.seg_distribute::<Max, _>(&child_values, &alloc.segments)
        } else {
            Vec::new()
        };
        let mins = if alloc.total > 0 {
            ctx.seg_distribute::<Min, _>(&child_values, &alloc.segments)
        } else {
            Vec::new()
        };
        let mut values = Vec::with_capacity(level.boards.len());
        for (i, b) in level.boards.iter().enumerate() {
            let v = if let Some(t) = level.terminal[i] {
                t
            } else if level.counts[i] == 0 {
                0 // depth cutoff on a live position
            } else {
                let head = alloc.starts[i];
                if b.x_to_move {
                    maxs[head]
                } else {
                    mins[head]
                }
            };
            values.push(v);
        }
        ctx.charge_permute_op(level.boards.len());
        ctx.charge_elementwise_op(level.boards.len());
        child_values = values;
    }
    SearchResult {
        value: child_values[0],
        wave_sizes,
    }
}

/// Parallel minimax with the default scan-model machine.
pub fn parallel_minimax(root: Board, max_depth: usize) -> SearchResult {
    let mut ctx = Ctx::new(Model::Scan);
    parallel_minimax_ctx(&mut ctx, root, max_depth)
}

/// Sequential minimax reference.
pub fn minimax_reference(b: Board, max_depth: usize) -> i8 {
    if let Some(t) = b.terminal_score() {
        return t;
    }
    if max_depth == 0 {
        return 0;
    }
    let n = b.move_count();
    let mut best: Option<i8> = None;
    for k in 0..n {
        let v = minimax_reference(b.apply_nth(k), max_depth - 1);
        best = Some(match best {
            None => v,
            Some(cur) => {
                if b.x_to_move {
                    cur.max(v)
                } else {
                    cur.min(v)
                }
            }
        });
    }
    best.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_mechanics() {
        let b = Board::parse("XX. OO. ...", true);
        assert_eq!(b.move_count(), 5);
        let win = b.apply_nth(0); // X plays cell 2
        assert_eq!(win.terminal_score(), Some(1));
        assert_eq!(win.move_count(), 0);
    }

    #[test]
    fn draw_detection() {
        let b = Board::parse("XOX XXO OXO", true);
        assert_eq!(b.terminal_score(), Some(0));
    }

    #[test]
    fn immediate_win_found() {
        // X completes the top row.
        let b = Board::parse("XX. OO. ...", true);
        assert_eq!(parallel_minimax(b, 9).value, 1);
    }

    #[test]
    fn forced_loss_detected() {
        // O has two ways to win; X to move cannot stop both.
        let b = Board::parse("OO. .X. .XO", true);
        assert_eq!(parallel_minimax(b, 9).value, minimax_reference(b, 9));
    }

    #[test]
    fn perfect_play_is_a_draw() {
        let r = parallel_minimax(Board::empty(), 9);
        assert_eq!(r.value, 0, "tic-tac-toe is a draw");
        // The frontier swells and then collapses as games finish — the
        // §2.4 dynamic-allocation profile. First waves: 1, 9, 72, ...
        assert_eq!(&r.wave_sizes[..3], &[1, 9, 72]);
        assert_eq!(r.wave_sizes.len(), 10);
    }

    #[test]
    fn matches_reference_on_random_positions() {
        let mut state = 77u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..40 {
            // Play a few random moves from the start, then compare.
            let mut b = Board::empty();
            let plies = (rng() % 6) as usize;
            for _ in 0..plies {
                if b.move_count() == 0 {
                    break;
                }
                let k = (rng() as usize) % b.move_count();
                b = b.apply_nth(k);
            }
            for depth in [0usize, 1, 2, 9] {
                assert_eq!(
                    parallel_minimax(b, depth).value,
                    minimax_reference(b, depth),
                    "board {b:?} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn cutoff_scores_live_positions_zero() {
        let r = parallel_minimax(Board::empty(), 0);
        assert_eq!(r.value, 0);
        assert_eq!(r.wave_sizes, vec![1]);
    }

    #[test]
    fn step_complexity_counts_waves_not_nodes() {
        // The program-step count is (a small constant) × depth, even
        // though the node count explodes: the whole wave is a handful
        // of vector operations.
        let mut ctx = Ctx::new(Model::Scan);
        let r = parallel_minimax_ctx(&mut ctx, Board::empty(), 9);
        let nodes: usize = r.wave_sizes.iter().sum();
        assert!(nodes > 100_000, "full tree has ~550k nodes, got {nodes}");
        assert!(
            ctx.steps() < 1200,
            "steps must scale with depth, not nodes: {}",
            ctx.steps()
        );
    }
}
