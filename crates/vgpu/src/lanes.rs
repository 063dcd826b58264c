//! Lane-group occupancy and divergence accounting.
//!
//! The lane-batched host path mirrors a warp on the modeled device: `L`
//! simulations advance in lockstep through the same instruction sequence,
//! so a lockstep iteration costs `L` lane-slots of work whether or not all
//! `L` lanes are live. Lanes park when their member finishes, fails, or the
//! pending queue runs dry — the classic SIMT divergence waste. This module
//! gives the device a first-class record of that waste so comparison maps
//! can report how much of the charged lane-slot work was productive.

/// Occupancy counters for one lane-group integration.
///
/// Engines build this with [`packed`](Self::packed) from per-member tick
/// counts and register it with
/// [`Device::record_lane_group`](crate::Device::record_lane_group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneGroupStats {
    /// Lane width `L` the group ran at.
    pub width: usize,
    /// Lockstep iterations the group executed (each one sweeps all `L`
    /// lane slots through a full solver step).
    pub lockstep_iters: u64,
    /// Productive lane-steps: lane slots that held a live member, summed
    /// over iterations. At most `width · lockstep_iters`.
    pub lane_steps: u64,
}

impl LaneGroupStats {
    /// The counters of a group of `width` lanes that binds its members to
    /// free lanes in the order given and keeps each for `ticks` consecutive
    /// lockstep iterations — the schedule a lockstep kernel follows when no
    /// lane ever waits — computed without running anything. Engines bill
    /// their *modelled* lane groups from it, whichever host group ran each
    /// member.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn packed(width: usize, ticks: impl IntoIterator<Item = u64>) -> LaneGroupStats {
        let mut free_at = vec![0u64; width];
        let mut lane_steps = 0;
        for ticks in ticks {
            let lane = free_at.iter_mut().min().expect("at least one lane");
            *lane += ticks;
            lane_steps += ticks;
        }
        let lockstep_iters = free_at.into_iter().max().expect("at least one lane");
        LaneGroupStats { width, lockstep_iters, lane_steps }
    }

    /// Multiplier (`≥ 1.0`) by which divergence inflates the charged work
    /// relative to perfectly packed lanes; `1.0` for an empty group.
    pub fn divergence_factor(&self) -> f64 {
        if self.lane_steps == 0 {
            1.0
        } else {
            (self.width as u64 * self.lockstep_iters) as f64 / self.lane_steps as f64
        }
    }
}

/// Aggregate lane accounting across every lane-group of a run.
///
/// Snapshot via [`Device::lane_accounting`](crate::Device::lane_accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneAccounting {
    /// Number of lane-groups recorded.
    pub groups: u64,
    /// Total lane slots swept (`Σ width · lockstep_iters`).
    pub slot_steps: u64,
    /// Total productive lane-steps (`Σ lane_steps`).
    pub lane_steps: u64,
    /// Widest lane width seen.
    pub max_width: usize,
}

impl LaneAccounting {
    /// Folds one group's counters into the aggregate.
    pub fn record(&mut self, stats: &LaneGroupStats) {
        self.groups += 1;
        self.slot_steps += stats.width as u64 * stats.lockstep_iters;
        self.lane_steps += stats.lane_steps;
        self.max_width = self.max_width.max(stats.width);
    }

    /// Run-wide lane occupancy, in `(0, 1]`; `1.0` when nothing was
    /// recorded.
    pub fn occupancy(&self) -> f64 {
        if self.slot_steps == 0 {
            1.0
        } else {
            self.lane_steps as f64 / self.slot_steps as f64
        }
    }

    /// Run-wide divergence multiplier (`≥ 1.0`).
    pub fn divergence_factor(&self) -> f64 {
        if self.lane_steps == 0 {
            1.0
        } else {
            self.slot_steps as f64 / self.lane_steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lanes_have_unit_occupancy() {
        let s = LaneGroupStats { width: 4, lockstep_iters: 100, lane_steps: 400 };
        assert_eq!(s.divergence_factor(), 1.0);
    }

    #[test]
    fn divergence_shows_up_as_sub_unit_occupancy() {
        let s = LaneGroupStats { width: 4, lockstep_iters: 100, lane_steps: 300 };
        assert!((s.divergence_factor() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_group_is_neutral() {
        let s = LaneGroupStats::default();
        assert_eq!(s.divergence_factor(), 1.0);
    }

    #[test]
    fn packed_is_a_list_schedule_in_member_order() {
        let packed = |width, ticks: &[u64]| {
            let stats = LaneGroupStats::packed(width, ticks.iter().copied());
            (stats.lockstep_iters, stats.lane_steps)
        };
        assert_eq!(
            LaneGroupStats::packed(4, []),
            LaneGroupStats { width: 4, ..Default::default() }
        );
        assert_eq!(packed(4, &[7]), (7, 7));
        assert_eq!(packed(2, &[3, 0, 5]), (5, 8));
        assert_eq!(packed(2, &[3, 0, 5, 4]), (7, 12));
        // The earliest-free lane takes the next member, the lowest on a tie.
        assert_eq!(packed(3, &[4, 1, 1, 1, 1]), (4, 8));
    }

    #[test]
    fn accounting_aggregates_groups() {
        let mut acc = LaneAccounting::default();
        acc.record(&LaneGroupStats { width: 4, lockstep_iters: 10, lane_steps: 40 });
        acc.record(&LaneGroupStats { width: 4, lockstep_iters: 10, lane_steps: 20 });
        assert_eq!(acc.groups, 2);
        assert_eq!(acc.slot_steps, 80);
        assert_eq!(acc.lane_steps, 60);
        assert_eq!(acc.max_width, 4);
        assert!((acc.occupancy() - 0.75).abs() < 1e-12);
        assert!((acc.divergence_factor() - 80.0 / 60.0).abs() < 1e-12);
    }
}
