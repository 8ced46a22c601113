//! Fixture: a float module in the flow crate. The float and cast rules
//! cover every module there, so the tokens below must fire both rules —
//! this file proves no float carve-out is left.

pub fn headroom(flow: f64, cap: f64, eps: f64) -> bool {
    flow + eps < cap
}

pub fn from_ratio(num: i64, den: i64) -> f64 {
    num as f64 / den as f64
}
