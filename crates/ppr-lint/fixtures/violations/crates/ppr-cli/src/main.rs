// A crate root: `mod pool;` reaches pool.rs, and pool.rs reaches
// pool/queue.rs. No declaration names orphan.rs.
mod pool;

fn main() {}
