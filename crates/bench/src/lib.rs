//! Shared helpers for the experiment harness.

use prs_core::graph::{builders, random, Graph};
use prs_core::numeric::Rational;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic random rings for a given experiment seed.
pub fn ring_family(seed: u64, count: usize, n: usize, lo: i64, hi: i64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random::random_ring(&mut rng, n, lo, hi))
        .collect()
}

/// Deterministic random connected graphs.
pub fn connected_family(seed: u64, count: usize, n: usize, p: f64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random::random_connected(&mut rng, n, p, 1, 12))
        .collect()
}

/// The three misreport showcase instances used by experiment E5 — one per
/// Proposition 11 case (Fig. 2a/2b/2c).
pub fn prop11_showcase() -> Vec<(&'static str, Graph, usize)> {
    vec![
        (
            "Case B-1 (always C-class)",
            builders::path(vec![Rational::from_integer(1), Rational::from_integer(10)]).unwrap(),
            0,
        ),
        (
            "Case B-2 (always B-class)",
            builders::ring(vec![
                Rational::from_integer(10),
                Rational::from_integer(1),
                Rational::from_integer(10),
                Rational::from_integer(1),
            ])
            .unwrap(),
            0,
        ),
        (
            "Case B-3 (crossover at x*)",
            builders::ring(vec![
                Rational::from_integer(6),
                Rational::from_integer(2),
                Rational::from_integer(4),
                Rational::from_integer(3),
                Rational::from_integer(5),
            ])
            .unwrap(),
            0,
        ),
    ]
}

/// Pad/format a rational for table output.
pub fn fmt_q(q: &Rational) -> String {
    format!("{} (≈{:.6})", q, q.to_f64())
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("  {}", cols.join(" | "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_deterministic() {
        let a = ring_family(5, 3, 6, 1, 10);
        let b = ring_family(5, 3, 6, 1, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.weights(), y.weights());
        }
    }

    #[test]
    fn showcase_instances_are_valid() {
        for (name, g, v) in prop11_showcase() {
            assert!(g.n() > v, "{name}");
            assert!(g.weights().iter().all(|w| w.is_positive()));
        }
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "22".into()]);
        t.print();
    }
}
