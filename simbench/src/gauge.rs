//! The host-speed gauge: a fixed reference kernel timed again and again
//! through a measurement, so that its times can be expressed at one
//! reference speed of the host.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to ±30 %
//! over minutes while other tenants contend for the core and its caches;
//! a run of 40 s cannot wait that out. The kernel is a small
//! discrete-event loop of the simulator's kind — a binary heap of
//! timestamped events and random read-modify-writes into a table that
//! fits the core's L2 and one that does not — so it slows when the
//! simulator does. It is this package's own code and allocates nothing
//! once built: no change to the simulator, its allocator or its build
//! moves it.

use std::cell::RefCell;
use std::time::Instant;

/// Time of one reading on an undisturbed 2-core Intel Xeon (family 6
/// model 207), s: the speed all end-to-end times are expressed at.
pub const REFERENCE_S: f64 = 0.004;

/// A reading is taken at a gauge point at most this often, s, so readings
/// cost about 4 % of a run's time.
const INTERVAL_S: f64 = 0.1;

/// Events each table's loop processes per reading.
const STEPS: usize = 10_000;
/// Pending events in each loop's heap.
const PENDING: u32 = 4096;
/// Table sizes in 8-byte words: 1 MiB (within L2) and 16 MiB (beyond it).
const TABLE_WORDS: [usize; 2] = [1 << 17, 1 << 21];

/// One discrete-event loop over a table.
struct Kernel {
    heap: Vec<(u64, u32)>,
    table: Vec<u64>,
    rng: u64,
}

impl Kernel {
    fn new(words: usize) -> Kernel {
        let mut k = Kernel {
            heap: Vec::with_capacity(PENDING as usize + 1),
            table: vec![1; words],
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        for id in 0..PENDING {
            let t = k.next() % 100_000;
            k.push((t, id));
        }
        k
    }

    fn next(&mut self) -> u64 {
        let mut s = self.rng;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.rng = s;
        s
    }

    fn push(&mut self, e: (u64, u32)) {
        self.heap.push(e);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> (u64, u32) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let top = self.heap.pop().expect("the heap is never empty");
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < last && self.heap[l] < self.heap[m] {
                m = l;
            }
            if r < last && self.heap[r] < self.heap[m] {
                m = r;
            }
            if m == i {
                return top;
            }
            self.heap.swap(i, m);
            i = m;
        }
    }

    /// Processes `steps` events: each pops the earliest, updates its
    /// table slot, and schedules a successor.
    fn run(&mut self, steps: usize) -> u64 {
        let mask = self.table.len() as u64 - 1;
        let mut acc = 0u64;
        for _ in 0..steps {
            let (t, id) = self.pop();
            let slot = ((u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t) & mask) as usize;
            let v = self.table[slot].wrapping_add(t);
            self.table[slot] = v;
            if v % 3 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= t;
            }
            let dt = self.next() % 1000;
            let next_id = (self.next() % 1_000_000) as u32;
            self.push((t + dt, next_id));
        }
        acc
    }
}

struct Gauge {
    kernels: Vec<Kernel>,
    last: Option<Instant>,
    readings: Vec<f64>,
}

thread_local! {
    static GAUGE: RefCell<Option<Gauge>> = const { RefCell::new(None) };
}

/// Starts a measurement on this thread: clears its readings.
pub fn reset() {
    GAUGE.with(|g| {
        if let Some(g) = g.borrow_mut().as_mut() {
            g.readings.clear();
            g.last = None;
        }
    });
}

/// A gauge point: takes a reading if none was taken on this thread in
/// the last [`INTERVAL_S`]. Call it only between timed spans.
pub fn point() {
    GAUGE.with(|g| {
        let mut g = g.borrow_mut();
        let g = g.get_or_insert_with(|| Gauge {
            kernels: TABLE_WORDS.iter().map(|&w| Kernel::new(w)).collect(),
            last: None,
            readings: Vec::new(),
        });
        if g.last
            .is_some_and(|t| t.elapsed().as_secs_f64() < INTERVAL_S)
        {
            return;
        }
        let t0 = Instant::now();
        for k in &mut g.kernels {
            std::hint::black_box(k.run(STEPS));
        }
        g.readings.push(t0.elapsed().as_secs_f64());
        g.last = Some(Instant::now());
    });
}

/// The readings taken on this thread since [`reset`], s.
pub fn readings() -> Vec<f64> {
    GAUGE.with(|g| {
        g.borrow()
            .as_ref()
            .map_or(Vec::new(), |g| g.readings.clone())
    })
}
