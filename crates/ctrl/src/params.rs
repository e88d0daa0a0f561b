use a4a_sim::Time;

/// Control-policy timing shared by both controller styles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTiming {
    /// Minimum PMOS on-time (`PMIN`, §II).
    pub pmin: Time,
    /// Minimum NMOS on-time (`NMIN`).
    pub nmin: Time,
    /// Extra PMOS on-time on the first charging cycle after UV (`PEXT`).
    pub pext: Time,
    /// Phase rotation period: the token-delay of the asynchronous ring,
    /// equal to the period of the synchronous design's `phase_clk`.
    pub activation_period: Time,
}

impl Default for PolicyTiming {
    fn default() -> Self {
        PolicyTiming {
            pmin: Time::from_ns(20.0),
            nmin: Time::from_ns(20.0),
            pext: Time::from_ns(40.0),
            activation_period: Time::from_ns(250.0),
        }
    }
}

/// Gate-driver characteristics (shared: the power stage is identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateTiming {
    /// Command-to-switch propagation of the gate driver.
    pub driver_delay: Time,
    /// Switch-to-acknowledge delay (threshold crossing detection,
    /// `V_pmos`/`V_nmos` of Figure 2a).
    pub ack_delay: Time,
}

impl Default for GateTiming {
    fn default() -> Self {
        GateTiming {
            driver_delay: Time::from_ns(1.0),
            ack_delay: Time::from_ns(1.5),
        }
    }
}

/// Parameters of the synchronous controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncParams {
    /// `fsm_clk` frequency in Hz (the paper sweeps 100 MHz–1 GHz).
    pub fsm_clk_hz: f64,
    /// Synchroniser depth (2 flops in the paper).
    pub sync_stages: u32,
    /// Metastability model for the first synchroniser flop: a marginal
    /// capture resolves to the old value with the model's probability,
    /// costing one extra clock period (the paper's "latency may increase
    /// by another clock period").
    pub meta: a4a_a2a::MetaParams,
    /// Policy timers.
    pub policy: PolicyTiming,
}

impl SyncParams {
    /// A controller clocked at `mhz` MHz with 2-flop synchronisers.
    ///
    /// # Panics
    ///
    /// Panics when `mhz` is NaN, infinite, or non-positive, or when its
    /// period rounds to 0 fs or exceeds 1 s (below 1e-6 MHz); see
    /// [`SyncParams::try_at_mhz`] for the fallible variant.
    pub fn at_mhz(mhz: f64) -> SyncParams {
        match Self::try_at_mhz(mhz) {
            Ok(p) => p,
            Err(e) => {
                panic!("{e} (clock frequency must be positive, its period 1 fs to 1 s)")
            }
        }
    }

    /// Fallible [`SyncParams::at_mhz`]: a NaN, infinite, or non-positive
    /// frequency, or one whose period rounds to 0 fs (above about
    /// 2e9 MHz) or exceeds 1 s (below 1e-6 MHz), is reported as
    /// [`SimError::InvalidParameter`](a4a_sim::SimError::InvalidParameter).
    /// The 1 s bound keeps the multiples of the period the controller
    /// takes, such as [`SyncParams::nominal_latency`], inside [`Time`].
    pub fn try_at_mhz(mhz: f64) -> Result<SyncParams, a4a_sim::SimError> {
        let fsm_clk_hz = mhz * 1e6;
        // A NaN, infinite or non-positive `mhz` gives a NaN, zero,
        // infinite or negative period, which this check rejects too.
        let max_period = Time::from_secs(1.0);
        if !Time::try_from_secs(1.0 / fsm_clk_hz).is_ok_and(|p| p > Time::ZERO && p <= max_period) {
            return Err(a4a_sim::SimError::InvalidParameter {
                what: "fsm_clk (MHz)",
                value: mhz,
            });
        }
        Ok(SyncParams {
            fsm_clk_hz,
            sync_stages: 2,
            meta: a4a_a2a::MetaParams::disabled(),
            policy: PolicyTiming::default(),
        })
    }

    /// Enables the synchroniser metastability model.
    pub fn with_meta(mut self, meta: a4a_a2a::MetaParams) -> SyncParams {
        self.meta = meta;
        self
    }

    /// The clock period.
    ///
    /// # Panics
    ///
    /// Panics when a `fsm_clk_hz` set by hand gives a period that does
    /// not fit in [`Time`]; [`SyncParams::try_at_mhz`] rejects those.
    pub fn period(&self) -> Time {
        Time::from_secs(1.0 / self.fsm_clk_hz)
    }

    /// The paper's nominal reaction latency: 2 periods of
    /// synchronisation plus half a period of FSM operation.
    pub fn nominal_latency(&self) -> Time {
        self.period() * u64::from(2 * self.sync_stages + 1) / 2
    }
}

impl Default for SyncParams {
    fn default() -> Self {
        SyncParams::at_mhz(333.0)
    }
}

/// Module decision delays of the asynchronous phase controller.
///
/// Defaults are calibrated to the input→gate-drive path delays measured
/// on the synthesised controller modules with the 90 nm-class library of
/// `a4a-netlist` — landing on the paper's Table I figures (HL 1.87 ns,
/// UV 1.02 ns, OV 1.18 ns, OC 0.75 ns, ZC 0.31 ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncTiming {
    /// WAIT / WAIT2 / RWAIT latch decision.
    pub d_wait: Time,
    /// WAITX2 arbitration decision.
    pub d_waitx: Time,
    /// Opportunistic MERGE element.
    pub d_merge: Time,
    /// TOKEN_CTRL decision.
    pub d_token: Time,
    /// MODE_CTRL decision.
    pub d_mode: Time,
    /// CHARGE_CTRL step.
    pub d_charge: Time,
    /// PMOS/NMOS_DELAY_CTRL pass-through (after the timer expired).
    pub d_delay_ctrl: Time,
    /// Extra MODE_CTRL step when switching the sensor references for the
    /// OV mode.
    pub d_mode_switch: Time,
    /// Policy timers.
    pub policy: PolicyTiming,
}

impl Default for AsyncTiming {
    fn default() -> Self {
        AsyncTiming {
            d_wait: Time::from_ps(310.0),
            d_waitx: Time::from_ps(360.0),
            d_merge: Time::from_ps(270.0),
            d_token: Time::from_ps(270.0),
            d_mode: Time::from_ps(330.0),
            d_charge: Time::from_ps(330.0),
            d_delay_ctrl: Time::from_ps(220.0),
            d_mode_switch: Time::from_ps(160.0),
            policy: PolicyTiming::default(),
        }
    }
}

impl AsyncTiming {
    /// The nominal UV→`gp` reaction path (WAITX2 → MODE_CTRL →
    /// CHARGE_CTRL), Table I's UV column.
    pub fn uv_path(&self) -> Time {
        self.d_waitx + self.d_mode + self.d_charge
    }

    /// The nominal OV reaction path (UV path plus the reference switch).
    pub fn ov_path(&self) -> Time {
        self.uv_path() + self.d_mode_switch
    }

    /// The nominal OC→`gp-` path (WAIT2 → PMOS_DELAY_CTRL →
    /// CHARGE_CTRL).
    pub fn oc_path(&self) -> Time {
        self.d_wait + self.d_delay_ctrl * 2
    }

    /// The nominal ZC→`gn-` path (RWAIT pass-through).
    pub fn zc_path(&self) -> Time {
        self.d_wait
    }

    /// The nominal HL→`gp` path: WAIT → MERGE → TOKEN_CTRL activation,
    /// then the regular UV demand path (WAITX2 → MODE_CTRL →
    /// CHARGE_CTRL).
    pub fn hl_path(&self) -> Time {
        self.d_wait + self.d_merge + self.d_token + self.uv_path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_latency_is_two_and_a_half_periods() {
        let p = SyncParams::at_mhz(333.0);
        let t = p.nominal_latency();
        assert!((t.as_ns() - 7.5).abs() < 0.02, "{t}");
        let p = SyncParams::at_mhz(100.0);
        assert!((p.nominal_latency().as_ns() - 25.0).abs() < 0.01);
        let p = SyncParams::at_mhz(1000.0);
        assert!((p.nominal_latency().as_ns() - 2.5).abs() < 0.01);
    }

    #[test]
    fn async_paths_match_table1() {
        let t = AsyncTiming::default();
        assert!((t.uv_path().as_ns() - 1.02).abs() < 0.01, "{}", t.uv_path());
        assert!((t.ov_path().as_ns() - 1.18).abs() < 0.01);
        assert!((t.oc_path().as_ns() - 0.75).abs() < 0.01);
        assert!((t.zc_path().as_ns() - 0.31).abs() < 0.01);
        assert!((t.hl_path().as_ns() - 1.87).abs() < 0.01);
    }

    #[test]
    fn policy_defaults_sane() {
        let p = PolicyTiming::default();
        assert!(p.pext > p.pmin);
        assert!(p.activation_period > p.pext);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_rejected() {
        let _ = SyncParams::at_mhz(0.0);
    }

    #[test]
    fn try_at_mhz_rejects_nan_and_non_positive() {
        use a4a_sim::SimError;
        // A period that rounds to 0 fs, one of 1e4 s, and one that
        // overflows `Time`.
        for bad in [f64::NAN, 0.0, -100.0, f64::INFINITY, 1e10, 1e-10, 1e-300] {
            assert!(
                matches!(
                    SyncParams::try_at_mhz(bad),
                    Err(SimError::InvalidParameter {
                        what: "fsm_clk (MHz)",
                        ..
                    })
                ),
                "{bad} accepted"
            );
        }
        let p = SyncParams::try_at_mhz(333.0).unwrap();
        assert_eq!(p, SyncParams::at_mhz(333.0));
    }
}
