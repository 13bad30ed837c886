//! Uniform spatial hash grid.
//!
//! All geometric queries in the simulator (communication-graph construction,
//! density estimation, the SINR resolver's candidate-transmitter search) go
//! through this index. Cells have a fixed side length; a disk query of radius
//! `r` touches `O((r/cell)²)` cells.
//!
//! The network's grid supports **sparse maintenance** ([`Grid::insert`],
//! [`Grid::remove`], [`Grid::move_point`]): a dynamics step that moves `k`
//! nodes costs `O(k)` hash-map updates instead of an `O(n)` rebuild. Each
//! cell's member list is kept sorted ascending, so an incrementally
//! maintained grid is **structurally identical** to one rebuilt from
//! scratch over the same points — query iteration order, and with it every
//! floating-point summation downstream, is the same either way. (Fresh
//! [`Grid::build`]s insert indices in increasing order, so they satisfy
//! the sorted invariant for free.) Subset grids ([`Grid::build_subset`],
//! one per field-path resolver round) are built once and never
//! maintained.

use crate::point::Point;
use std::collections::HashMap;

/// A uniform grid over a set of points, mapping cells to point indices.
///
/// ```
/// use dcluster_sim::{Grid, Point};
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5), Point::new(3.0, 3.0)];
/// let grid = Grid::build(&pts, 1.0);
/// let near: Vec<usize> = grid.within(&pts, Point::new(0.0, 0.0), 1.0).collect();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<u32>>, // lint:allow(D1, reason = "cell buckets: keyed hot-path lookups, never iterated")
}

impl Grid {
    /// Builds a grid with the given cell side length.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell size must be positive"
        );
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new(); // lint:allow(D1, reason = "cell buckets: keyed hot-path lookups, never iterated")
        for (i, p) in points.iter().enumerate() {
            cells.entry(Self::key(p, cell)).or_default().push(i as u32);
        }
        Self { cell, cells }
    }

    /// Builds a grid over a *subset* of the points (e.g. this round's
    /// transmitters); stored indices refer to the original slice. Member
    /// lists hold the subset's order per cell, which is the order queries
    /// visit them in.
    pub fn build_subset(points: &[Point], subset: &[usize], cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell size must be positive"
        );
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new(); // lint:allow(D1, reason = "cell buckets: keyed hot-path lookups, never iterated")
        for &i in subset {
            cells
                .entry(Self::key(&points[i], cell))
                .or_default()
                .push(i as u32);
        }
        Self { cell, cells }
    }

    #[inline]
    fn key(p: &Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Iterates indices of stored points within distance `r` of `center`
    /// (closed ball), in unspecified order.
    pub fn within<'a>(
        &'a self,
        points: &'a [Point],
        center: Point,
        r: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let r_sq = r * r;
        self.candidate_cells(center, r)
            .flat_map(move |ids| ids.iter().copied())
            .filter_map(move |i| {
                let i = i as usize;
                (points[i].dist_sq(center) <= r_sq).then_some(i)
            })
    }

    /// Counts stored points within distance `r` of `center`.
    pub fn count_within(&self, points: &[Point], center: Point, r: f64) -> usize {
        self.within(points, center, r).count()
    }

    /// Cell key of an arbitrary position under this grid's tiling.
    #[inline]
    pub fn key_of(&self, p: Point) -> (i64, i64) {
        Self::key(&p, self.cell)
    }

    /// Stored point indices in cell `key` (empty slice if the cell is
    /// unoccupied).
    #[inline]
    pub fn cell_members(&self, key: (i64, i64)) -> &[u32] {
        self.cells.get(&key).map_or(&[], |v| v.as_slice())
    }

    /// Inserts point index `i` located at `p` — `O(cell occupancy)` for the
    /// sorted insertion. The point must not already be stored at `p`'s cell.
    pub fn insert(&mut self, i: usize, p: Point) {
        let members = self.cells.entry(Self::key(&p, self.cell)).or_default();
        let idx = i as u32;
        match members.binary_search(&idx) {
            Ok(_) => debug_assert!(false, "point {i} already stored in its cell"),
            Err(pos) => members.insert(pos, idx),
        }
    }

    /// Removes point index `i` located at `p` (the position it was inserted
    /// under). Empty cells are dropped from the map so an incrementally
    /// maintained grid stays structurally identical to a fresh rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not stored in `p`'s cell — that means the caller's
    /// position bookkeeping has diverged from the grid.
    pub fn remove(&mut self, i: usize, p: Point) {
        let key = Self::key(&p, self.cell);
        let members = self
            .cells
            .get_mut(&key)
            .unwrap_or_else(|| panic!("removing {i} from an empty cell {key:?}")); // lint:allow(P1, reason = "grid/point desync is a bug, not bad input")
        let pos = members
            .binary_search(&(i as u32))
            .unwrap_or_else(|_| panic!("point {i} not stored in cell {key:?}")); // lint:allow(P1, reason = "grid/point desync is a bug, not bad input")
        members.remove(pos);
        if members.is_empty() {
            self.cells.remove(&key);
        }
    }

    /// Relocates point index `i` from `from` to `to`. A no-op when both
    /// positions hash to the same cell (the grid stores indices, not
    /// coordinates — callers own the position array).
    pub fn move_point(&mut self, i: usize, from: Point, to: Point) {
        if Self::key(&from, self.cell) == Self::key(&to, self.cell) {
            return;
        }
        self.remove(i, from);
        self.insert(i, to);
    }

    fn candidate_cells(&self, center: Point, r: f64) -> impl Iterator<Item = &Vec<u32>> + '_ {
        let lo_x = ((center.x - r) / self.cell).floor() as i64;
        let hi_x = ((center.x + r) / self.cell).floor() as i64;
        let lo_y = ((center.y - r) / self.cell).floor() as i64;
        let hi_y = ((center.y + r) / self.cell).floor() as i64;
        (lo_x..=hi_x)
            .flat_map(move |cx| (lo_y..=hi_y).map(move |cy| (cx, cy)))
            .filter_map(move |k| self.cells.get(&k))
    }

    /// Number of non-empty cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn brute_within(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].dist(c) <= r)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn within_matches_brute_force_on_random_clouds() {
        let mut rng = Rng64::new(42);
        for trial in 0..20 {
            let n = 50 + trial * 13;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0)))
                .collect();
            let grid = Grid::build(&pts, 0.7);
            for _ in 0..10 {
                let c = Point::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0));
                let r = rng.range_f64(0.1, 3.0);
                let mut got: Vec<usize> = grid.within(&pts, c, r).collect();
                got.sort_unstable();
                assert_eq!(got, brute_within(&pts, c, r));
            }
        }
    }

    #[test]
    fn subset_grid_only_sees_subset() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.2, 0.0),
        ];
        let grid = Grid::build_subset(&pts, &[0, 2], 1.0);
        let got: Vec<usize> = grid.within(&pts, Point::ORIGIN, 1.0).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&0) && got.contains(&2));
    }

    #[test]
    fn incremental_ops_match_fresh_rebuild() {
        let mut rng = Rng64::new(77);
        let mut pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.range_f64(0.0, 6.0), rng.range_f64(0.0, 6.0)))
            .collect();
        let mut grid = Grid::build(&pts, 0.8);
        for _ in 0..500 {
            let i = rng.range_usize(pts.len());
            let to = Point::new(rng.range_f64(-1.0, 7.0), rng.range_f64(-1.0, 7.0));
            grid.move_point(i, pts[i], to);
            pts[i] = to;
        }
        assert_eq!(
            grid,
            Grid::build(&pts, 0.8),
            "incrementally moved grid must equal a fresh rebuild, \
             including per-cell member order"
        );
    }

    #[test]
    fn remove_drops_empty_cells() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let mut grid = Grid::build(&pts, 1.0);
        assert_eq!(grid.occupied_cells(), 2);
        grid.remove(1, pts[1]);
        assert_eq!(grid.occupied_cells(), 1);
        assert_eq!(grid, Grid::build_subset(&pts, &[0], 1.0));
        grid.insert(1, pts[1]);
        assert_eq!(grid, Grid::build(&pts, 1.0));
    }

    #[test]
    fn move_within_a_cell_is_a_noop_on_structure() {
        let mut pts = vec![Point::new(0.2, 0.2), Point::new(0.4, 0.4)];
        let mut grid = Grid::build(&pts, 1.0);
        let before = grid.clone();
        grid.move_point(0, pts[0], Point::new(0.9, 0.9));
        pts[0] = Point::new(0.9, 0.9);
        assert_eq!(grid, before, "same cell: index sets unchanged");
        assert_eq!(grid, Grid::build(&pts, 1.0));
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn removing_an_absent_point_panics() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.1)];
        let mut grid = Grid::build_subset(&pts, &[0], 1.0);
        grid.remove(1, pts[1]);
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let pts = vec![Point::new(-0.01, -0.01), Point::new(0.01, 0.01)];
        let grid = Grid::build(&pts, 1.0);
        assert_eq!(grid.count_within(&pts, Point::ORIGIN, 0.1), 2);
    }
}
