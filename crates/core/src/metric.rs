//! Which discovery completion a latency refers to.
//!
//! One enum for the whole workspace: the sweep grammar's `metric` key, the
//! Monte-Carlo pair read-out, the netsim cohort read-outs and the bound a
//! Pareto front is measured against all take it. Its spellings are part of
//! every spec and every job hash, so they never change.

/// The discovery-completion metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// One fixed direction completes: F discovers E (Theorem 5.4); in an
    /// N-node cohort every ordered pair counts separately.
    OneWay,
    /// Both directions complete (Theorems 5.5/5.7).
    TwoWay,
    /// Either direction completes (Appendix C).
    EitherWay,
}

impl Metric {
    /// Parse a spelling: `one-way` | `two-way` | `either-way`.
    pub fn from_name(name: &str) -> Option<Metric> {
        match name {
            "one-way" => Some(Metric::OneWay),
            "two-way" => Some(Metric::TwoWay),
            "either-way" => Some(Metric::EitherWay),
            _ => None,
        }
    }

    /// The spelling [`Metric::from_name`] parses.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::OneWay => "one-way",
            Metric::TwoWay => "two-way",
            Metric::EitherWay => "either-way",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for m in [Metric::OneWay, Metric::TwoWay, Metric::EitherWay] {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("sideways"), None);
    }
}
