//! Wall-clock timing of repeated replays, and the calibration that scales
//! host times to a reference host's speed.

use crate::report::median;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Median seconds of [`calibrate`] on the reference host (2 vCPUs at
/// 2.1 GHz; see `perfbench/design.json`).
const CALIBRATION_REFERENCE_S: f64 = 0.0039;

/// Time a fixed CPU workload owned by the benchmark: seeded integer hashing
/// into a binary heap, then draining it through a float reduction — the
/// kinds of work the simulator's event loops do, and none of its code, so
/// no change to the library moves it. [`repeat`] runs it before every call:
/// the ratio of its reference time to its median in a run is how much
/// slower or faster the host ran than the reference host while the run was
/// measured (shared hosts drift by tens of percent over minutes).
fn calibrate() -> f64 {
    const ITEMS: u64 = 50_000;
    let (_, secs) = timed(|| {
        let mut heap = BinaryHeap::with_capacity(ITEMS as usize);
        for i in 0..ITEMS {
            // SplitMix64 finalizer of the item index.
            let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            heap.push(Reverse(z ^ (z >> 31)));
        }
        let mut acc = 0.0_f64;
        while let Some(Reverse(v)) = heap.pop() {
            acc += ((v >> 11) as f64).sqrt();
        }
        std::hint::black_box(acc)
    });
    secs
}

/// Run `f` once and return its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Results of [`repeat`].
#[derive(Debug)]
pub struct Repeated<R> {
    /// Wall seconds of each call.
    pub walls: Vec<f64>,
    /// Wall seconds of the calibration run before each call.
    calibrations: Vec<f64>,
    /// The first call's result.
    pub first: R,
    /// Whether every later result equalled the first.
    pub all_equal: bool,
}

impl<R> Repeated<R> {
    /// Reference-host seconds per host second while these calls ran.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REFERENCE_S / median(&self.calibrations)
    }

    /// Median wall seconds of a call, scaled to the reference host.
    pub fn median_scaled(&self) -> f64 {
        median(&self.walls) * self.scale()
    }

    /// One line summarizing the raw wall times, for standard error.
    pub fn summary(&self, what: &str) -> String {
        let mut walls = self.walls.clone();
        walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are never NaN"));
        format!(
            "{what}: {} replays, wall s min {:.4} median {:.4} max {:.4}, scale {:.4}",
            walls.len(),
            walls[0],
            walls[walls.len() / 2],
            walls[walls.len() - 1],
            self.scale()
        )
    }
}

/// Call `f` until `budget` seconds have passed and at least `min_reps`
/// calls ran, timing each call (after a calibration run) and checking
/// every result against the first.
pub fn repeat<R: PartialEq>(budget: f64, min_reps: usize, mut f: impl FnMut() -> R) -> Repeated<R> {
    let start = Instant::now();
    let mut calibrations = vec![calibrate()];
    let (first, wall) = timed(&mut f);
    let mut walls = vec![wall];
    let mut all_equal = true;
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < budget {
        calibrations.push(calibrate());
        let (out, wall) = timed(&mut f);
        walls.push(wall);
        all_equal &= out == first;
    }
    Repeated {
        walls,
        calibrations,
        first,
        all_equal,
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Run `setup` [`SETUPS`] times. It returns its product and the seconds it
/// spent generating inputs; this returns the last product, the median
/// set-up seconds and the median generation seconds.
pub fn setups<S>(mut setup: impl FnMut() -> (S, f64)) -> (S, f64, f64) {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut gen_secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let ((product, gen), secs) = timed(&mut setup);
        setup_secs.push(secs);
        gen_secs.push(gen);
        last = Some(product);
    }
    (
        last.expect("at least one set-up"),
        median(&setup_secs),
        median(&gen_secs),
    )
}
