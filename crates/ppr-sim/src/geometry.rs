//! The testbed floor plan (paper Fig. 7).
//!
//! 27 nodes over nine rooms of an indoor office floor roughly
//! 100 ft × 50 ft (30.5 m × 15.2 m): 23 CC2420 senders and four GNU Radio
//! receivers R1–R4 deployed among them. The exact coordinates in the
//! paper are not published; this layout reproduces the published
//! structure — a 3 × 3 room grid, senders clustered 2–3 per room,
//! receivers spread so each hears 4–8 senders at usable strength with
//! link qualities from near-perfect to marginal.

use crate::scenario::MAX_MESH_NODES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planar position in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x coordinate, meters (long axis of the floor).
    pub x: f64,
    /// y coordinate, meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, meters.
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`: [`Self::distance`] before
    /// its square root.
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// Floor dimensions, meters (≈ 100 ft × 50 ft).
pub const FLOOR_X_M: f64 = 30.5;
/// Floor depth, meters.
pub const FLOOR_Y_M: f64 = 15.2;

/// Number of sender nodes (Telos motes).
pub const NUM_SENDERS: usize = 23;
/// Number of receiver nodes (GNU Radios R1–R4).
pub const NUM_RECEIVERS: usize = 4;

/// The testbed: sender and receiver positions.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Sender positions, index = sender id.
    pub senders: Vec<Point>,
    /// Receiver positions, index = receiver id (R1..R4).
    pub receivers: Vec<Point>,
    /// Apply the 3 × 3 room-grid wall attenuation
    /// ([`Testbed::walls_between`])? True for the office layouts
    /// (`fig7`, `grid` — the walls are the floor's), false for the
    /// open-plan synthetic topologies (`random_geometric`, `mesh`).
    pub wall_attenuation: bool,
}

impl Testbed {
    /// The Fig. 7-style layout: senders spread 2–3 per room over a 3×3
    /// room grid, receivers placed between room clusters.
    pub fn fig7() -> Testbed {
        // Room grid: 3 columns × 3 rows, each room ~10.2 m × 5.1 m.
        // Senders are placed at deterministic offsets inside rooms.
        let mut senders = Vec::with_capacity(NUM_SENDERS);
        let offsets = [(2.0, 1.2), (6.5, 3.8), (8.9, 1.8)];
        let mut count = 0;
        'outer: for row in 0..3 {
            for col in 0..3 {
                let room_x = col as f64 * (FLOOR_X_M / 3.0);
                let room_y = row as f64 * (FLOOR_Y_M / 3.0);
                for &(ox, oy) in &offsets {
                    if count == NUM_SENDERS {
                        break 'outer;
                    }
                    senders.push(Point::new(room_x + ox, room_y + oy * (FLOOR_Y_M / 15.2)));
                    count += 1;
                }
            }
        }
        // Receivers R1–R4 spread along the floor between room clusters.
        let receivers = vec![
            Point::new(5.5, 7.6),
            Point::new(13.0, 4.0),
            Point::new(18.5, 11.0),
            Point::new(26.0, 6.5),
        ];
        Testbed {
            senders,
            receivers,
            wall_attenuation: true,
        }
    }

    /// A regular `cols × rows` sender grid over the same office floor
    /// (cell centers), with the four Fig. 7 receivers — a controlled
    /// topology for density sweeps where every sender spacing is known.
    ///
    /// # Panics
    /// Panics if either side is 0 or `cols × rows` overflows `usize`.
    pub fn grid(cols: usize, rows: usize) -> Testbed {
        assert!(cols >= 1 && rows >= 1, "grid needs at least one cell");
        let cells = cols
            .checked_mul(rows)
            .unwrap_or_else(|| panic!("grid {cols}x{rows} overflows usize"));
        let mut senders = Vec::with_capacity(cells);
        for row in 0..rows {
            for col in 0..cols {
                senders.push(Point::new(
                    (col as f64 + 0.5) * FLOOR_X_M / cols as f64,
                    (row as f64 + 0.5) * FLOOR_Y_M / rows as f64,
                ));
            }
        }
        Testbed {
            senders,
            receivers: Testbed::fig7().receivers,
            wall_attenuation: true,
        }
    }

    /// A random-geometric layout: [`NUM_SENDERS`] senders and
    /// [`NUM_RECEIVERS`] receivers placed uniformly on a square sized so
    /// the expected number of senders within `comm_radius_m` of a point
    /// is `density` — the standard random-geometric-graph construction.
    /// Open plan (no wall attenuation): the square is synthetic, not the
    /// Fig. 7 floor.
    pub fn random_geometric(seed: u64, density: f64, comm_radius_m: f64) -> Testbed {
        let mut tb = Self::mesh(seed, NUM_SENDERS, density, comm_radius_m);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE3D).wrapping_add(11));
        let side = tb.side_hint();
        tb.receivers = (0..NUM_RECEIVERS)
            .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        tb
    }

    /// A mesh layout for the event-driven flood experiments: `nodes`
    /// positions drawn uniformly on a square sized for an expected
    /// `density` neighbors within `comm_radius_m`, with **senders and
    /// receivers being the same node set** (every node both transmits
    /// and receives). Open plan, no wall attenuation.
    ///
    /// # Panics
    /// Panics if `nodes` is outside 2–[`MAX_MESH_NODES`]: the layout is
    /// allocated up front.
    pub fn mesh(seed: u64, nodes: usize, density: f64, comm_radius_m: f64) -> Testbed {
        assert!(nodes >= 2, "a mesh needs at least two nodes");
        assert!(
            nodes <= MAX_MESH_NODES,
            "mesh of {nodes} nodes outside 2-{MAX_MESH_NODES}"
        );
        assert!(
            density > 0.0 && comm_radius_m > 0.0,
            "density and radius must be positive"
        );
        // Expected neighbors in a disk: n·πr²/A = density  ⇒
        // side = r·√(nπ/density).
        let side = comm_radius_m * (nodes as f64 * std::f64::consts::PI / density).sqrt();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x1656_67B1).wrapping_add(5));
        let senders: Vec<Point> = (0..nodes)
            .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        Testbed {
            receivers: senders.clone(),
            senders,
            wall_attenuation: false,
        }
    }

    /// The bounding-square side the synthetic layouts were drawn on
    /// (max coordinate; 0 for an empty testbed).
    fn side_hint(&self) -> f64 {
        self.senders
            .iter()
            .flat_map(|p| [p.x, p.y])
            .fold(0.0f64, f64::max)
    }

    /// Distance from sender `s` to receiver `r`, meters.
    pub fn sender_receiver_distance(&self, s: usize, r: usize) -> f64 {
        self.senders[s].distance(&self.receivers[r])
    }

    /// Distance between two senders (for carrier sensing), meters.
    pub fn sender_sender_distance(&self, a: usize, b: usize) -> f64 {
        self.senders[a].distance(&self.senders[b])
    }

    /// Room-grid coordinates `(col, row)` of a point (3 × 3 grid).
    pub fn room_of(p: &Point) -> (usize, usize) {
        let col = ((p.x / (FLOOR_X_M / 3.0)) as usize).min(2);
        let row = ((p.y / (FLOOR_Y_M / 3.0)) as usize).min(2);
        (col, row)
    }

    /// Approximate number of interior walls a straight path between two
    /// points crosses: the Manhattan distance between their room-grid
    /// cells. Wall attenuation is what keeps each sink hearing only the
    /// 4–8 nearby senders of the paper's testbed instead of the whole
    /// floor.
    pub fn walls_between(a: &Point, b: &Point) -> usize {
        let (ac, ar) = Self::room_of(a);
        let (bc, br) = Self::room_of(b);
        ac.abs_diff(bc) + ar.abs_diff(br)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_has_paper_node_counts() {
        let tb = Testbed::fig7();
        assert_eq!(tb.senders.len(), NUM_SENDERS);
        assert_eq!(tb.receivers.len(), NUM_RECEIVERS);
    }

    #[test]
    fn all_nodes_inside_floor() {
        let tb = Testbed::fig7();
        for p in tb.senders.iter().chain(&tb.receivers) {
            assert!(p.x >= 0.0 && p.x <= FLOOR_X_M, "{p:?}");
            assert!(p.y >= 0.0 && p.y <= FLOOR_Y_M, "{p:?}");
        }
    }

    #[test]
    fn senders_are_distinct_positions() {
        let tb = Testbed::fig7();
        for i in 0..tb.senders.len() {
            for j in (i + 1)..tb.senders.len() {
                assert!(
                    tb.senders[i].distance(&tb.senders[j]) > 0.5,
                    "senders {i},{j}"
                );
            }
        }
    }

    #[test]
    fn link_distances_span_near_and_far() {
        // The layout must produce both short (< 6 m) and long (> 15 m)
        // sender→receiver links: the diversity every result depends on.
        let tb = Testbed::fig7();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for s in 0..NUM_SENDERS {
            for r in 0..NUM_RECEIVERS {
                let d = tb.sender_receiver_distance(s, r);
                min = min.min(d);
                max = max.max(d);
            }
        }
        assert!(min < 6.0, "closest link {min}");
        assert!(max > 15.0, "farthest link {max}");
    }

    #[test]
    fn grid_layout_covers_floor_evenly() {
        let tb = Testbed::grid(6, 4);
        assert_eq!(tb.senders.len(), 24);
        assert_eq!(tb.receivers.len(), NUM_RECEIVERS);
        assert!(tb.wall_attenuation);
        for p in &tb.senders {
            assert!(p.x > 0.0 && p.x < FLOOR_X_M);
            assert!(p.y > 0.0 && p.y < FLOOR_Y_M);
        }
        // Neighboring grid senders are exactly one pitch apart.
        let pitch = FLOOR_X_M / 6.0;
        assert!((tb.senders[0].distance(&tb.senders[1]) - pitch).abs() < 1e-12);
    }

    #[test]
    fn random_geometric_is_seed_stable_and_scaled() {
        let a = Testbed::random_geometric(7, 10.0, 30.0);
        let b = Testbed::random_geometric(7, 10.0, 30.0);
        assert_eq!(a.senders, b.senders);
        assert_eq!(a.receivers, b.receivers);
        assert!(!a.wall_attenuation);
        let c = Testbed::random_geometric(8, 10.0, 30.0);
        assert_ne!(a.senders, c.senders);
        // Higher density ⇒ smaller square.
        let dense = Testbed::random_geometric(7, 20.0, 30.0);
        assert!(dense.side_hint() < a.side_hint());
    }

    #[test]
    #[should_panic(expected = "outside 2-100000")]
    fn a_mesh_past_the_bound_panics_before_allocating() {
        Testbed::mesh(3, MAX_MESH_NODES + 1, 12.0, 35.0);
    }

    #[test]
    fn mesh_nodes_are_both_senders_and_receivers() {
        let tb = Testbed::mesh(3, 500, 12.0, 35.0);
        assert_eq!(tb.senders.len(), 500);
        assert_eq!(tb.senders, tb.receivers);
        // Mean degree within the comm radius lands near the target
        // density (Poisson-ish; generous tolerance, minus edge effects).
        let r = 35.0;
        let mut degree = 0usize;
        for i in 0..tb.senders.len() {
            for j in 0..tb.senders.len() {
                if i != j && tb.senders[i].distance(&tb.senders[j]) <= r {
                    degree += 1;
                }
            }
        }
        let mean = degree as f64 / tb.senders.len() as f64;
        assert!((6.0..=14.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn distance_is_symmetric() {
        let tb = Testbed::fig7();
        assert_eq!(
            tb.sender_sender_distance(0, 5),
            tb.sender_sender_distance(5, 0)
        );
        assert_eq!(tb.sender_sender_distance(3, 3), 0.0);
    }
}
