use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// An interned digital-track name.
///
/// Track names ("uv", "gp0", "get & !pass", ...) are registered once —
/// at testbench/controller construction time — in a process-wide name
/// table; the per-event hot path then stores and compares a `u16`
/// instead of a heap `String`. Ids are process-local (the numbering
/// depends on registration order), but resolve back to the same names
/// everywhere, so rendered output is independent of interning order.
///
/// # Examples
///
/// ```
/// use a4a_analog::TrackId;
///
/// let uv = TrackId::intern("uv");
/// assert_eq!(uv, TrackId::intern("uv")); // idempotent
/// assert_eq!(uv.name(), "uv");
/// assert_eq!(uv, "uv"); // compares by resolved name
/// assert_eq!(uv.to_string(), "uv");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(u16);

fn registry() -> &'static Mutex<Vec<&'static str>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl TrackId {
    /// Interns `name`, returning its process-wide id. Idempotent; cold
    /// path only (linear scan + allocation on first sight of a name).
    ///
    /// # Panics
    ///
    /// Panics if the table exceeds `u16::MAX` distinct names — far
    /// beyond the handful of tracks any testbench registers.
    pub fn intern(name: &str) -> TrackId {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = reg.iter().position(|&n| n == name) {
            return TrackId(idx as u16);
        }
        assert!(
            reg.len() < u16::MAX as usize,
            "track name table full ({} names)",
            reg.len()
        );
        // Leaked once per distinct name for the process lifetime, so
        // `name()` can hand out `&'static str` without a guard.
        reg.push(Box::leak(name.to_owned().into_boxed_str()));
        TrackId((reg.len() - 1) as u16)
    }

    /// Resolves the id back to the name it was interned from.
    pub fn name(self) -> &'static str {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.get(self.0 as usize)
            .copied()
            .unwrap_or("<unregistered>")
    }

    /// Raw table index (diagnostics only — ids are process-local).
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for TrackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl PartialEq<str> for TrackId {
    fn eq(&self, other: &str) -> bool {
        self.name() == other
    }
}

impl PartialEq<&str> for TrackId {
    fn eq(&self, other: &&str) -> bool {
        self.name() == *other
    }
}

/// A recorded mixed-signal run: analog samples plus named digital event
/// tracks — the data behind Figure 6's waveform plots.
///
/// # Examples
///
/// ```
/// use a4a_analog::Waveform;
///
/// let mut w = Waveform::new(2);
/// w.sample(0.0, 0.0, &[0.0, 0.0]);
/// w.sample(1e-9, 0.1, &[0.01, 0.0]);
/// w.event_named(0.5e-9, "uv", true);
/// assert_eq!(w.len(), 2);
/// assert!(w.csv().starts_with("t,v"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Waveform {
    phases: usize,
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Output voltage per sample (V).
    pub v: Vec<f64>,
    /// Coil current per phase per sample (A): `i[phase][sample]`.
    pub i: Vec<Vec<f64>>,
    /// Digital events: (time, interned track id, new value). Resolve
    /// names with [`TrackId::name`]; `id == "uv"` compares by name.
    pub events: Vec<(f64, TrackId, bool)>,
}

impl Waveform {
    /// An empty record for `phases` phases.
    pub fn new(phases: usize) -> Waveform {
        Waveform {
            phases,
            t: Vec::new(),
            v: Vec::new(),
            i: vec![Vec::new(); phases],
            events: Vec::new(),
        }
    }

    /// Number of analog samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Appends an analog sample.
    ///
    /// # Panics
    ///
    /// Panics if `currents` length differs from the phase count.
    pub fn sample(&mut self, t: f64, v: f64, currents: &[f64]) {
        assert_eq!(currents.len(), self.phases, "phase count mismatch");
        self.t.push(t);
        self.v.push(v);
        for (k, &c) in currents.iter().enumerate() {
            self.i[k].push(c);
        }
    }

    /// Reserves room for at least `samples` more analog samples in every
    /// column.
    pub fn reserve(&mut self, samples: usize) {
        self.t.reserve(samples);
        self.v.reserve(samples);
        for column in &mut self.i {
            column.reserve(samples);
        }
    }

    /// Appends a digital event on an interned track (allocation-free).
    pub fn event(&mut self, t: f64, track: TrackId, value: bool) {
        self.events.push((t, track, value));
    }

    /// Appends a digital event on a track given by name, interning it
    /// first. Convenience for tests and one-off recording; hot paths
    /// should intern once and use [`Waveform::event`].
    pub fn event_named(&mut self, t: f64, track: &str, value: bool) {
        self.event(t, TrackId::intern(track), value);
    }

    /// Restricts all analog samples to a time window (events kept).
    pub fn window(&self, t_start: f64, t_end: f64) -> Waveform {
        let mut out = Waveform::new(self.phases);
        for (idx, &t) in self.t.iter().enumerate() {
            if t >= t_start && t <= t_end {
                out.t.push(t);
                out.v.push(self.v[idx]);
                for k in 0..self.phases {
                    out.i[k].push(self.i[k][idx]);
                }
            }
        }
        out.events = self
            .events
            .iter()
            .filter(|(t, _, _)| *t >= t_start && *t <= t_end)
            .copied()
            .collect();
        out
    }

    /// Renders the analog samples as CSV (`t,v,i0,i1,...`).
    pub fn csv(&self) -> String {
        let mut out = String::from("t,v");
        for k in 0..self.phases {
            let _ = write!(out, ",i{k}");
        }
        out.push('\n');
        for idx in 0..self.len() {
            let _ = write!(out, "{:.9e},{:.6}", self.t[idx], self.v[idx]);
            for k in 0..self.phases {
                let _ = write!(out, ",{:.6}", self.i[k][idx]);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the digital events as CSV (`t,track,value`).
    pub fn events_csv(&self) -> String {
        let mut out = String::from("t,track,value\n");
        let mut sorted = self.events.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, track, value) in sorted {
            let _ = writeln!(out, "{t:.9e},{track},{}", u8::from(value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave() -> Waveform {
        let mut w = Waveform::new(2);
        for k in 0..10 {
            let t = k as f64 * 1e-9;
            w.sample(t, k as f64 * 0.1, &[k as f64 * 0.01, 0.0]);
        }
        w.event_named(3e-9, "uv", true);
        w.event_named(7e-9, "uv", false);
        w
    }

    #[test]
    fn sample_and_len() {
        let w = wave();
        assert_eq!(w.len(), 10);
        assert!(!w.is_empty());
        assert_eq!(w.phases(), 2);
        assert_eq!(w.i[0].len(), 10);
    }

    #[test]
    fn reserve_covers_every_column() {
        let mut w = wave();
        w.reserve(1_000);
        assert!(w.t.capacity() >= 1_010 && w.v.capacity() >= 1_010);
        assert!(w.i.iter().all(|column| column.capacity() >= 1_010));
        assert_eq!(w, wave(), "reserving records nothing");
    }

    #[test]
    fn intern_round_trip() {
        let a = TrackId::intern("round-trip-a");
        let b = TrackId::intern("round-trip-b");
        assert_ne!(a, b);
        assert_eq!(a, TrackId::intern("round-trip-a"));
        assert_eq!(a.name(), "round-trip-a");
        assert_eq!(b.name(), "round-trip-b");
        assert_eq!(a, "round-trip-a");
        assert_ne!(&a, &"round-trip-b");
        assert_eq!(format!("{a}"), "round-trip-a");
    }

    #[test]
    fn window_filters_samples_and_events() {
        let w = wave().window(1.5e-9, 6.5e-9);
        assert_eq!(w.len(), 5);
        assert_eq!(w.events.len(), 1);
        assert_eq!(w.events[0].1, "uv");
        assert!(w.events[0].2);
    }

    #[test]
    fn window_preserves_interned_events() {
        let mut w = Waveform::new(1);
        w.sample(0.0, 0.0, &[0.0]);
        let gp = TrackId::intern("gp0");
        let uv = TrackId::intern("uv");
        w.event(1e-9, gp, true);
        w.event(2e-9, uv, true);
        w.event(3e-9, gp, false);
        let win = w.window(0.5e-9, 2.5e-9);
        assert_eq!(win.events, vec![(1e-9, gp, true), (2e-9, uv, true)]);
        assert_eq!(win.events[0].1.name(), "gp0");
    }

    #[test]
    fn csv_shape() {
        let w = wave();
        let csv = w.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,v,i0,i1");
        assert_eq!(lines.len(), 11);
        let ev = w.events_csv();
        assert!(ev.contains("uv,1"));
        assert!(ev.contains("uv,0"));
    }

    #[test]
    fn events_csv_renders_names_exactly_as_string_era() {
        // The pre-interning format was `{t:.9e},{track},{value as u8}`
        // with a stable sort by time; byte-for-byte compatibility is
        // the refactor contract.
        let mut w = Waveform::new(1);
        w.sample(0.0, 0.0, &[0.0]);
        w.event_named(2e-9, "uv", false);
        w.event_named(1e-9, "gp0", true);
        w.event_named(1e-9, "hl", true);
        assert_eq!(
            w.events_csv(),
            "t,track,value\n\
             1.000000000e-9,gp0,1\n\
             1.000000000e-9,hl,1\n\
             2.000000000e-9,uv,0\n"
        );
    }

    #[test]
    #[should_panic(expected = "phase count mismatch")]
    fn wrong_phase_count_panics() {
        let mut w = Waveform::new(2);
        w.sample(0.0, 0.0, &[0.0]);
    }
}
