#[test]
fn mean_of_two_points() {
    assert_eq!(ppr_dead::mean(&[1.0, 3.0]), 2.0);
}
