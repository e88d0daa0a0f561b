/// An analog comparator with hysteresis and propagation delay.
///
/// The comparator watches a continuous quantity. [`Comparator::edge`]
/// names the level whose crossing flips the output, so a simulator that
/// knows the quantity's trajectory locates the crossing itself and
/// [`Comparator::toggle`]s the output there; the output change reaches
/// its listener [`Comparator::delay`] later. This is the analog
/// equivalent of the testbench's `cross()` in Verilog-A.
///
/// # Examples
///
/// ```
/// use a4a_analog::Comparator;
///
/// // Over-current: asserts above 0.2 A with 4 mA hysteresis, 1 ns delay.
/// let mut oc = Comparator::above(0.2, 0.004, 1e-9);
/// assert_eq!(oc.edge(), (0.2 + 0.002, true), "asserts rising past 0.202 A");
/// assert!(oc.toggle());
/// assert_eq!(oc.edge(), (0.2 - 0.002, false), "releases falling past 0.198 A");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    /// `true`: asserts when the input is above the threshold.
    rise_above: bool,
    threshold: f64,
    hysteresis: f64,
    delay: f64,
    state: bool,
}

impl Comparator {
    /// A comparator asserting when the input exceeds `threshold`.
    pub fn above(threshold: f64, hysteresis: f64, delay: f64) -> Comparator {
        Comparator {
            rise_above: true,
            threshold,
            hysteresis,
            delay,
            state: false,
        }
    }

    /// A comparator asserting when the input falls below `threshold`.
    pub fn below(threshold: f64, hysteresis: f64, delay: f64) -> Comparator {
        Comparator {
            rise_above: false,
            threshold,
            hysteresis,
            delay,
            state: false,
        }
    }

    /// The current (already-propagated) output.
    pub fn output(&self) -> bool {
        self.state
    }

    /// Forces the output state (used when initialising a testbench in a
    /// known operating point).
    pub fn set_output(&mut self, state: bool) {
        self.state = state;
    }

    /// Changes the reference threshold (the paper's OV-mode switch of
    /// `I_max`→`I_0` and `I_0`→`I_neg`). [`Comparator::edge`] reflects
    /// it at once.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The propagation delay (s).
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// The threshold the input must cross for the output to *assert*.
    fn assert_level(&self) -> f64 {
        if self.rise_above {
            self.threshold + self.hysteresis / 2.0
        } else {
            self.threshold - self.hysteresis / 2.0
        }
    }

    /// The threshold the input must cross for the output to *deassert*.
    fn deassert_level(&self) -> f64 {
        if self.rise_above {
            self.threshold - self.hysteresis / 2.0
        } else {
            self.threshold + self.hysteresis / 2.0
        }
    }

    /// The level whose crossing flips the output, and whether the input
    /// must reach it from below (`true`) or from above.
    pub fn edge(&self) -> (f64, bool) {
        if self.state {
            (self.deassert_level(), !self.rise_above)
        } else {
            (self.assert_level(), self.rise_above)
        }
    }

    /// Flips the output (the input crossed the [`Comparator::edge`]
    /// level) and returns the new output.
    pub fn toggle(&mut self) -> bool {
        self.state = !self.state;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_asserts_rising_and_releases_falling() {
        let mut c = Comparator::above(1.0, 0.0, 0.0);
        assert_eq!(c.edge(), (1.0, true));
        assert!(c.toggle());
        assert_eq!(c.edge(), (1.0, false));
        assert!(!c.toggle());
        assert!(!c.output());
    }

    #[test]
    fn below_asserts_falling() {
        let mut c = Comparator::below(3.3, 0.0, 0.0);
        assert_eq!(c.edge(), (3.3, false));
        assert!(c.toggle());
        assert!(c.output());
    }

    #[test]
    fn hysteresis_separates_the_two_levels() {
        let mut c = Comparator::below(1.0, 0.5, 0.0);
        assert_eq!(c.edge(), (0.75, false), "asserts falling past 0.75");
        assert!(c.toggle());
        assert_eq!(c.edge(), (1.25, true), "releases rising past 1.25");
        assert!(!c.toggle());
    }

    #[test]
    fn threshold_change_moves_the_edge() {
        let mut c = Comparator::above(0.25, 0.5, 2e-9);
        c.set_threshold(0.5);
        assert_eq!(c.threshold(), 0.5);
        assert_eq!(c.edge(), (0.75, true));
        assert_eq!(c.delay(), 2e-9);
    }

    #[test]
    fn set_output_initialises_state() {
        let mut c = Comparator::below(3.3, 0.0, 0.0);
        c.set_output(true);
        assert!(c.output());
        // Already asserted: the next edge releases, rising.
        assert_eq!(c.edge(), (3.3, true));
    }
}
