//! Quick vs. paper-scale experiment configuration.

/// Whether an experiment runs at the scaled-down default or at the paper's
/// full scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale configuration preserving the qualitative shape.
    Quick,
    /// The paper's configuration (minutes of runtime for the large figures).
    Full,
}

impl Scale {
    /// Picks between the quick and full value of a parameter.
    #[must_use]
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Human-readable label for report headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick scale (pass --full for the paper's scale)",
            Scale::Full => "full paper scale",
        }
    }

    /// Machine-readable name used in the `BENCH_*.json` schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(Scale::Quick.label(), Scale::Full.label());
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Full.name(), "full");
    }
}
