//! Watershed labeling: TerraFlow step 3, time-forward processing.
//!
//! "Step 3 uses neighbor information to propagate colors from the lowest
//! points up/outward to the peaks and ridges. This step is difficult to
//! parallelize because it uses time-forward processing and relies on
//! ordering for correctness" (Section 4.1).
//!
//! Cells arrive in increasing `(elevation, position)` order. A local
//! minimum (no lower neighbour) opens a new watershed color; every other
//! cell adopts the color of its steepest lower neighbour (its D8 flow
//! direction). A colored cell *forwards* its color to each higher
//! neighbour through the external priority queue, keyed by that
//! neighbour's sort key — time-forward processing.

use crate::cell::CellRec;
use crate::grid::Grid;
use crate::pqueue::ExternalPq;
use lmas_core::functor::{Emit, Functor, FunctorKind};
use lmas_core::{log2_ceil, Packet, Record, Work};

/// A color message: "cell at `sender_pos` has `color`".
#[derive(Debug, Clone, Copy)]
struct ColorMsg {
    sender_x: u16,
    sender_y: u16,
    color: u32,
}

/// Core of the labeling: consumes cells in key order, returns each cell
/// with its watershed color. Shared by the oracle and the functor.
#[derive(Debug)]
pub struct WatershedLabeler {
    pq: ExternalPq<u64, ColorMsg>,
    /// Scratch for the messages addressed to the cell being labeled,
    /// reused so labeling allocates nothing per cell.
    msgs: Vec<ColorMsg>,
    next_color: u32,
    processed: u64,
    last_key: Option<u64>,
}

impl Default for WatershedLabeler {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

impl WatershedLabeler {
    /// A labeler whose message queue buffers `pq_buffer` items in memory.
    pub fn new(pq_buffer: usize) -> WatershedLabeler {
        WatershedLabeler {
            pq: ExternalPq::new(pq_buffer),
            msgs: Vec::new(),
            next_color: 0,
            processed: 0,
            last_key: None,
        }
    }

    /// Number of distinct watershed colors assigned so far.
    pub fn colors(&self) -> u32 {
        self.next_color
    }

    /// Cells labeled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Current message-queue length (memory accounting).
    pub fn queued_messages(&self) -> usize {
        self.pq.len()
    }

    /// Label one cell. Cells **must** arrive in increasing key order.
    pub fn label(&mut self, mut cell: CellRec) -> CellRec {
        let key = cell.key();
        assert!(
            self.last_key.is_none_or(|k| k <= key),
            "cells must arrive in sorted order (time-forward processing)"
        );
        self.last_key = Some(key);
        self.msgs.clear();
        self.pq.pop_all_eq(key, &mut self.msgs);
        let color = match cell.flow_direction() {
            None => {
                // Local minimum: a new watershed springs here.
                let c = self.next_color;
                self.next_color += 1;
                c
            }
            Some(fd) => {
                // Adopt the color of the steepest lower neighbour; its
                // message was forwarded when it was processed.
                let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
                let nx = (cell.x as isize + dx) as u16;
                let ny = (cell.y as isize + dy) as u16;
                self.msgs
                    .iter()
                    .find(|m| m.sender_x == nx && m.sender_y == ny)
                    .unwrap_or_else(|| {
                        panic!(
                            "missing color message from ({nx},{ny}) to ({},{})",
                            cell.x, cell.y
                        )
                    })
                    .color
            }
        };
        cell.color = color;
        // Forward my color to every strictly higher neighbour.
        for i in 0..8 {
            if let Some(nk) = cell.neighbor_key(i) {
                if nk > key {
                    self.pq.push(
                        nk,
                        ColorMsg {
                            sender_x: cell.x,
                            sender_y: cell.y,
                            color,
                        },
                    );
                }
            }
        }
        self.processed += 1;
        cell
    }
}

/// Sequential oracle: restructure + sort + label, all in memory. Returns
/// row-major colors.
pub fn watershed_oracle(grid: &Grid) -> Vec<u32> {
    let mut cells = crate::cell::restructure(grid);
    cells.sort_by_key(|c| c.key());
    let mut labeler = WatershedLabeler::default();
    let w = grid.width();
    let mut colors = vec![0u32; grid.len()];
    for cell in cells {
        let labeled = labeler.label(cell);
        colors[labeled.y as usize * w + labeled.x as usize] = labeled.color;
    }
    colors
}

/// The step-3 functor: a host-only stream operator wrapping
/// [`WatershedLabeler`]. Input must be a globally sorted stream of cells;
/// output is the same cells, colored.
pub struct WatershedFunctor {
    labeler: WatershedLabeler,
}

impl WatershedFunctor {
    /// A watershed functor with the given PQ memory budget (items).
    pub fn new(pq_buffer: usize) -> WatershedFunctor {
        WatershedFunctor {
            labeler: WatershedLabeler::new(pq_buffer),
        }
    }

    /// Colors assigned so far.
    pub fn colors(&self) -> u32 {
        self.labeler.colors()
    }
}

impl Functor<CellRec> for WatershedFunctor {
    fn name(&self) -> String {
        "watershed".into()
    }
    fn kind(&self) -> FunctorKind {
        // Time-forward processing holds an input-sized message queue:
        // unbounded per-record state, hence host-only — this is exactly
        // why the paper says step 3 resists ASU offload.
        FunctorKind::HostOnly
    }
    fn process(&mut self, input: Packet<CellRec>, out: &mut Emit<CellRec>) {
        let labeled: Packet<CellRec> = input
            .into_records()
            .into_iter()
            .map(|c| self.labeler.label(c))
            .collect();
        out.push0(labeled);
    }
    fn flush(&mut self, _out: &mut Emit<CellRec>) {}
    fn cost(&self, input: &Packet<CellRec>) -> Work {
        // Per cell: 8 neighbour comparisons, a PQ pop/push round at
        // ~log(queue) compares, one record move. The queue's in-memory
        // buffer is a binary heap, so the real labeler does this work:
        // ~log(queue) compares per message pushed or popped.
        let n = input.len() as u64;
        let pq_log = log2_ceil(self.labeler.queued_messages().max(2) as u64);
        Work::compares(n * (8 + 2 * pq_log)) + Work::moves(n)
    }
    fn state_bytes(&self) -> usize {
        self.labeler.queued_messages() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{cone_terrain, fractal_terrain, twin_valley_terrain};

    /// Watershed colors without a priority queue: every cell follows its
    /// `flow_direction` pointers down to a local minimum, and the minima
    /// are numbered in ascending key order. Row-major, like
    /// [`watershed_oracle`].
    fn descent_reference(grid: &Grid) -> Vec<u32> {
        let cells = crate::cell::restructure(grid);
        let w = grid.width();
        let minimum_of = |mut i: usize| loop {
            let c = &cells[i];
            match c.flow_direction() {
                None => return i,
                Some(fd) => {
                    let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
                    i = (c.y as isize + dy) as usize * w + (c.x as isize + dx) as usize;
                }
            }
        };
        let minima: Vec<usize> = (0..cells.len()).map(minimum_of).collect();
        let mut by_key: Vec<usize> = (0..cells.len()).filter(|&i| minima[i] == i).collect();
        by_key.sort_by_key(|&i| cells[i].key());
        let mut color = vec![u32::MAX; cells.len()];
        for (c, &i) in by_key.iter().enumerate() {
            color[i] = c as u32;
        }
        minima.iter().map(|&m| color[m]).collect()
    }

    #[test]
    fn oracle_equals_descent_reference() {
        let terrains = [
            ("cone 17x17", cone_terrain(17, 17)),
            ("twin valley 16x8", twin_valley_terrain(16, 8)),
            ("fractal 33x33", fractal_terrain(33, 33, 0.55, 3)),
            ("fractal 129x129", fractal_terrain(129, 129, 0.55, 5)),
            ("F-TF 257x257", fractal_terrain(257, 257, 0.55, 13)),
        ];
        for (name, g) in terrains {
            assert_eq!(watershed_oracle(&g), descent_reference(&g), "{name}");
        }
    }

    #[test]
    fn cone_is_one_watershed() {
        let g = cone_terrain(17, 17);
        let colors = watershed_oracle(&g);
        assert!(colors.iter().all(|&c| c == colors[0]));
    }

    #[test]
    fn twin_valley_is_two_watersheds() {
        let g = twin_valley_terrain(16, 8);
        let colors = watershed_oracle(&g);
        let mut distinct: Vec<u32> = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2, "one basin per valley");
        // Left and right edges belong to different basins.
        assert_ne!(colors[0], colors[15]);
    }

    #[test]
    fn fractal_labels_are_complete_and_contiguousish() {
        let g = fractal_terrain(33, 33, 0.55, 3);
        let colors = watershed_oracle(&g);
        assert_eq!(colors.len(), 33 * 33);
        let mut distinct: Vec<u32> = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(!distinct.is_empty());
        // Colors are dense 0..k.
        assert_eq!(distinct, (0..distinct.len() as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn every_cell_shares_color_with_flow_target() {
        // The defining invariant: each non-minimum cell has the color of
        // its flow-direction neighbour.
        let g = fractal_terrain(17, 17, 0.6, 5);
        let colors = watershed_oracle(&g);
        let cells = crate::cell::restructure(&g);
        let w = g.width();
        for c in &cells {
            if let Some(fd) = c.flow_direction() {
                let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
                let nx = (c.x as isize + dx) as usize;
                let ny = (c.y as isize + dy) as usize;
                assert_eq!(
                    colors[c.y as usize * w + c.x as usize],
                    colors[ny * w + nx],
                    "cell ({},{}) disagrees with its flow target",
                    c.x,
                    c.y
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted order")]
    fn out_of_order_input_rejected() {
        use crate::cell::{CellRec, NO_NEIGHBOR};
        // Two isolated minima delivered in descending key order.
        let hi = CellRec { x: 0, y: 0, elev: 10, neighbors: [NO_NEIGHBOR; 8], color: 0 };
        let lo = CellRec { x: 1, y: 0, elev: 5, neighbors: [NO_NEIGHBOR; 8], color: 0 };
        let mut labeler = WatershedLabeler::default();
        labeler.label(hi);
        labeler.label(lo);
    }

    #[test]
    fn functor_matches_oracle() {
        let g = fractal_terrain(17, 17, 0.5, 8);
        let oracle = watershed_oracle(&g);
        let mut cells = crate::cell::restructure(&g);
        cells.sort_by_key(|c| c.key());
        let mut f = WatershedFunctor::new(64);
        let mut e = Emit::new(1);
        for chunk in cells.chunks(100) {
            f.process(Packet::new(chunk.to_vec()), &mut e);
        }
        let w = g.width();
        for (_, p) in e.take() {
            for c in p.records() {
                assert_eq!(c.color, oracle[c.y as usize * w + c.x as usize]);
            }
        }
    }

    #[test]
    fn labeler_with_tiny_pq_buffer_still_correct() {
        // Forces heavy spilling in the external PQ.
        let g = fractal_terrain(17, 17, 0.5, 9);
        let mut cells = crate::cell::restructure(&g);
        cells.sort_by_key(|c| c.key());
        let mut small = WatershedLabeler::new(4);
        let mut big = WatershedLabeler::new(1 << 20);
        let reference = descent_reference(&g);
        for c in cells {
            let labeled = small.label(c);
            assert_eq!(labeled.color, big.label(c).color);
            assert_eq!(
                labeled.color,
                reference[c.y as usize * g.width() + c.x as usize]
            );
        }
        assert_eq!(small.colors(), big.colors());
    }
}
