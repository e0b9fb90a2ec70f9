/// Live: the crate's integration test calls it.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Dead: only the lib.rs re-export and this file's test name it.
pub fn spread(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_two_points() {
        assert_eq!(spread(&[1.0, 3.0]), 1.0);
    }
}
