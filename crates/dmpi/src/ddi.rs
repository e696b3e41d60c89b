//! DDI process-model emulation: data servers vs MPI-3 one-sided, and
//! distributed arrays.
//!
//! GAMESS's DDI layer predates MPI one-sided support: classically every
//! compute rank is paired with a *data server* process that services
//! remote get/put/accumulate requests, doubling the process count (paper
//! §6.2). The MPI-3 based DDI eliminates the servers. The paper runs all
//! benchmarks without data servers; the mode lives here so the memory
//! model can quantify what the servers would have cost.

use crate::fault::{FaultPlan, FaultSpec, RetryPolicy};
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which DDI transport the run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DdiMode {
    /// Classic DDI: one data-server process per compute rank.
    DataServer,
    /// MPI-3 one-sided DDI (used for all the paper's benchmarks).
    Mpi3OneSided,
}

impl DdiMode {
    /// OS processes consumed per compute rank.
    pub fn processes_per_rank(self) -> usize {
        match self {
            DdiMode::DataServer => 2,
            DdiMode::Mpi3OneSided => 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            DdiMode::DataServer => "DDI data servers",
            DdiMode::Mpi3OneSided => "MPI-3 one-sided",
        }
    }
}

/// Counters of the reliable request/response link underneath a
/// [`DistributedArray`] (see [`DistributedArray::with_faults`]).
/// All zero for windows without a fault-injected link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Remote request messages carried by the link.
    pub messages: u64,
    /// Requests acknowledged by the owning side (successful deliveries).
    pub acks: u64,
    /// Requests retransmitted after a transient fault.
    pub retransmits: u64,
    /// Payloads discarded after failing checksum verification.
    pub corruptions_detected: u64,
    /// Requests that were delivered after >= 1 transient fault.
    pub transient_recoveries: u64,
    /// Window-edge faults actually injected (drops + corruptions).
    pub faults_injected: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LinkFaultKind {
    Drop,
    Corrupt,
}

struct LinkFault {
    from: usize,
    to: usize,
    nth: usize,
    kind: LinkFaultKind,
    fired: bool,
}

/// Reliable-delivery layer for window traffic: every remote get/put/acc
/// is a logical request message on the `(caller -> owner)` edge. A
/// [`FaultPlan`]'s `drop@`/`corrupt@` specs are interpreted on these
/// window edges (in their own per-edge ordinal space, independent of
/// the world's rank-message ordinals): a dropped request never reaches
/// the owner, a corrupt one is detected by checksum and discarded —
/// either way the link backs off deterministically and retransmits
/// within the policy budget, so a transient window fault costs a
/// retransmission instead of a failed rank.
struct WindowLink {
    faults: Mutex<Vec<LinkFault>>,
    /// Physical 1-based transmission ordinals per (caller, owner) edge.
    seq: Mutex<HashMap<(usize, usize), usize>>,
    policy: RetryPolicy,
    messages: AtomicU64,
    acks: AtomicU64,
    retransmits: AtomicU64,
    corruptions: AtomicU64,
    recoveries: AtomicU64,
    injected: AtomicU64,
}

impl WindowLink {
    fn new(plan: &FaultPlan, policy: RetryPolicy) -> Self {
        let faults = plan
            .specs()
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::DropMessage { from, to, nth } => {
                    Some(LinkFault { from, to, nth, kind: LinkFaultKind::Drop, fired: false })
                }
                FaultSpec::CorruptMessage { from, to, nth } => {
                    Some(LinkFault { from, to, nth, kind: LinkFaultKind::Corrupt, fired: false })
                }
                _ => None, // kills/delays belong to the world, not the link
            })
            .collect();
        WindowLink {
            faults: Mutex::new(faults),
            seq: Mutex::new(HashMap::new()),
            policy,
            messages: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    fn fire(&self, from: usize, to: usize) -> Option<LinkFaultKind> {
        let nth = {
            let mut seq = self.seq.lock();
            let n = seq.entry((from, to)).or_insert(0);
            *n += 1;
            *n
        };
        let mut faults = self.faults.lock();
        for f in faults.iter_mut() {
            if !f.fired && f.from == from && f.to == to && f.nth == nth {
                f.fired = true;
                return Some(f.kind);
            }
        }
        None
    }

    /// Carry one logical request on the `(from -> to)` edge, absorbing
    /// transient faults by bounded retransmission. Panics with a named
    /// edge when the retry budget is exhausted (fatal: at real scale
    /// this is where the owner would be declared dead).
    fn deliver(&self, from: usize, to: usize) {
        self.messages.fetch_add(1, Ordering::SeqCst);
        let attempts = self.policy.max_attempts.max(1);
        let mut suffered_transient = false;
        for attempt in 1..=attempts {
            if attempt > 1 {
                std::thread::sleep(self.policy.backoff_for(from, to, attempt - 1));
                self.retransmits.fetch_add(1, Ordering::SeqCst);
                phi_trace::instant("ddi.retransmit", to as u64);
            }
            match self.fire(from, to) {
                None => {
                    self.acks.fetch_add(1, Ordering::SeqCst);
                    if suffered_transient {
                        self.recoveries.fetch_add(1, Ordering::SeqCst);
                        phi_trace::instant("ddi.recovered", to as u64);
                    }
                    return;
                }
                Some(LinkFaultKind::Drop) => {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    suffered_transient = true;
                }
                Some(LinkFaultKind::Corrupt) => {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    self.corruptions.fetch_add(1, Ordering::SeqCst);
                    phi_trace::instant("ddi.corrupt_detected", to as u64);
                    suffered_transient = true;
                }
            }
        }
        panic!(
            "window link: no delivery on edge rank {from} -> rank {to} \
             after {attempts} attempts (retry budget exhausted)"
        );
    }

    fn stats(&self) -> LinkStats {
        LinkStats {
            messages: self.messages.load(Ordering::SeqCst),
            acks: self.acks.load(Ordering::SeqCst),
            retransmits: self.retransmits.load(Ordering::SeqCst),
            corruptions_detected: self.corruptions.load(Ordering::SeqCst),
            transient_recoveries: self.recoveries.load(Ordering::SeqCst),
            faults_injected: self.injected.load(Ordering::SeqCst),
        }
    }
}

/// A globally addressable 1-D `f64` array striped over ranks in equal
/// blocks (DDI's `ddi_create` / `ddi_get` / `ddi_put` / `ddi_acc`).
///
/// In-process, segments are mutex-guarded vectors; each operation also
/// counts the bytes that would have crossed the network so communication
/// volume is observable. The [`DdiMode`] is behavioral, not just a label:
/// under [`DdiMode::Mpi3OneSided`] an access to the caller's own segment
/// is a direct load/store (no traffic), while under
/// [`DdiMode::DataServer`] *every* access — local segment included — is a
/// request/response pair serviced by the rank's paired data-server
/// process, so all bytes count as remote and every segment touch counts
/// one server message. The numerics are identical in both modes.
pub struct DistributedArray {
    segments: Vec<Arc<Mutex<Vec<f64>>>>,
    seg_len: usize,
    len: usize,
    mode: DdiMode,
    remote_bytes: AtomicU64,
    server_messages: AtomicU64,
    link: Option<Arc<WindowLink>>,
}

impl DistributedArray {
    /// Create an array of `len` elements striped over `n_ranks` segments,
    /// in the MPI-3 one-sided transport (the paper's benchmark mode).
    pub fn new(len: usize, n_ranks: usize) -> DistributedArray {
        DistributedArray::new_with_mode(len, n_ranks, DdiMode::Mpi3OneSided)
    }

    /// Create an array striped over `n_ranks` segments with an explicit
    /// DDI transport mode.
    pub fn new_with_mode(len: usize, n_ranks: usize, mode: DdiMode) -> DistributedArray {
        let seg_len = len.div_ceil(n_ranks);
        let segments = (0..n_ranks)
            .map(|r| {
                let lo = (r * seg_len).min(len);
                let hi = ((r + 1) * seg_len).min(len);
                Arc::new(Mutex::new(vec![0.0; hi - lo]))
            })
            .collect();
        DistributedArray {
            segments,
            seg_len,
            len,
            mode,
            remote_bytes: AtomicU64::new(0),
            server_messages: AtomicU64::new(0),
            link: None,
        }
    }

    /// Attach a fault-injected reliable link: the plan's `drop@`/
    /// `corrupt@` specs fire on this window's `(caller -> owner)` edges
    /// (their own ordinal space, independent of the world's rank
    /// messages) and are absorbed by bounded, deterministically
    /// backed-off retransmission per `policy`.
    pub fn with_faults(mut self, plan: &FaultPlan, policy: RetryPolicy) -> Self {
        self.link = Some(Arc::new(WindowLink::new(plan, policy)));
        self
    }

    /// Counters of the reliable link (all zero without
    /// [`with_faults`](Self::with_faults)).
    pub fn link_stats(&self) -> LinkStats {
        self.link.as_ref().map_or(LinkStats::default(), |l| l.stats())
    }

    /// The DDI transport this array models.
    pub fn mode(&self) -> DdiMode {
        self.mode
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Which rank owns element `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        idx / self.seg_len
    }

    fn for_range(
        &self,
        caller: usize,
        lo: usize,
        data_len: usize,
        mut f: impl FnMut(usize, usize, &mut [f64]),
    ) {
        assert!(lo + data_len <= self.len, "range out of bounds");
        let mut pos = lo;
        let mut off = 0;
        while off < data_len {
            let seg = self.owner(pos);
            let seg_lo = pos - seg * self.seg_len;
            let take = (data_len - off).min(self.seg_len - seg_lo);
            // Remote accesses ride the (possibly fault-injected)
            // reliable link first: the segment mutation below only
            // happens once the logical request got through, exactly
            // like a real get/put/acc that was dropped in flight.
            let remote = match self.mode {
                DdiMode::Mpi3OneSided => seg != caller,
                DdiMode::DataServer => true,
            };
            if remote {
                if let Some(link) = &self.link {
                    link.deliver(caller, seg);
                }
            }
            let mut guard = self.segments[seg].lock();
            f(off, seg_lo, &mut guard[seg_lo..seg_lo + take]);
            match self.mode {
                // One-sided: only cross-rank access costs traffic.
                DdiMode::Mpi3OneSided => {
                    if seg != caller {
                        self.remote_bytes.fetch_add((take * 8) as u64, Ordering::Relaxed);
                    }
                }
                // Data servers: every access is a message to the segment
                // owner's server process, local segments included.
                DdiMode::DataServer => {
                    self.remote_bytes.fetch_add((take * 8) as u64, Ordering::Relaxed);
                    self.server_messages.fetch_add(1, Ordering::Relaxed);
                }
            }
            pos += take;
            off += take;
        }
    }

    /// One-sided read of `[lo, lo + out.len())` by `caller`.
    pub fn get(&self, caller: usize, lo: usize, out: &mut [f64]) {
        let n = out.len();
        let out_cell = std::cell::RefCell::new(out);
        self.for_range(caller, lo, n, |off, _seg_lo, seg| {
            out_cell.borrow_mut()[off..off + seg.len()].copy_from_slice(seg);
        });
    }

    /// One-sided write.
    pub fn put(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, _seg_lo, seg| {
            seg.copy_from_slice(&data[off..off + seg.len()]);
        });
    }

    /// One-sided accumulate (`ddi_acc`): remote `+=`.
    pub fn acc(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, _seg_lo, seg| {
            for (s, d) in seg.iter_mut().zip(&data[off..]) {
                *s += d;
            }
        });
    }

    /// Bytes that crossed rank boundaries so far.
    pub fn remote_traffic_bytes(&self) -> u64 {
        self.remote_bytes.load(Ordering::Relaxed)
    }

    /// Request/response messages serviced by data-server processes.
    /// Always zero in [`DdiMode::Mpi3OneSided`].
    pub fn server_messages(&self) -> u64 {
        self.server_messages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_process_counts() {
        assert_eq!(DdiMode::DataServer.processes_per_rank(), 2);
        assert_eq!(DdiMode::Mpi3OneSided.processes_per_rank(), 1);
    }

    #[test]
    fn put_get_roundtrip_across_segments() {
        let a = DistributedArray::new(100, 4);
        let data: Vec<f64> = (0..50).map(|x| x as f64).collect();
        // Write spanning segments 0 and 1 (seg_len = 25).
        a.put(0, 10, &data);
        let mut out = vec![0.0; 50];
        a.get(0, 10, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn acc_accumulates() {
        let a = DistributedArray::new(10, 2);
        a.acc(0, 3, &[1.0, 1.0]);
        a.acc(1, 3, &[2.0, 3.0]);
        let mut out = vec![0.0; 2];
        a.get(0, 3, &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
    }

    #[test]
    fn remote_traffic_counts_only_cross_rank_bytes() {
        let a = DistributedArray::new(100, 4); // seg_len 25
        a.put(0, 0, &[1.0; 25]); // entirely local to rank 0
        assert_eq!(a.remote_traffic_bytes(), 0);
        a.put(0, 25, &[1.0; 25]); // entirely on rank 1
        assert_eq!(a.remote_traffic_bytes(), 200);
    }

    #[test]
    fn data_server_mode_charges_local_access_and_counts_messages() {
        let a = DistributedArray::new_with_mode(100, 4, DdiMode::DataServer); // seg_len 25
        a.put(0, 0, &[1.0; 25]); // local segment — still a server round-trip
        assert_eq!(a.remote_traffic_bytes(), 200);
        assert_eq!(a.server_messages(), 1);
        a.acc(0, 20, &[1.0; 10]); // spans segments 0 and 1: two messages
        assert_eq!(a.remote_traffic_bytes(), 280);
        assert_eq!(a.server_messages(), 3);
    }

    #[test]
    fn one_sided_mode_has_no_server_messages() {
        let a = DistributedArray::new(100, 4);
        assert_eq!(a.mode(), DdiMode::Mpi3OneSided);
        a.put(0, 0, &[1.0; 50]);
        a.get(1, 0, &mut [0.0; 50]);
        assert_eq!(a.server_messages(), 0);
    }

    #[test]
    fn modes_produce_identical_numerics() {
        for mode in [DdiMode::DataServer, DdiMode::Mpi3OneSided] {
            let a = DistributedArray::new_with_mode(10, 3, mode);
            a.put(0, 2, &[1.0, 2.0, 3.0]);
            a.acc(1, 3, &[0.5, 0.5]);
            let mut out = vec![0.0; 4];
            a.get(2, 2, &mut out);
            assert_eq!(out, vec![1.0, 2.5, 3.5, 0.0], "{}", mode.label());
        }
    }

    #[test]
    fn owner_mapping() {
        let a = DistributedArray::new(100, 4);
        assert_eq!(a.owner(0), 0);
        assert_eq!(a.owner(24), 0);
        assert_eq!(a.owner(25), 1);
        assert_eq!(a.owner(99), 3);
    }

    #[test]
    fn concurrent_acc_is_atomic_per_segment() {
        let a = Arc::new(DistributedArray::new(8, 2));
        let mut handles = Vec::new();
        for r in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    a.acc(r % 2, 0, &[1.0; 8]);
                }
            }));
        }
        for (worker, h) in handles.into_iter().enumerate() {
            h.join().unwrap_or_else(|_| {
                panic!("acc worker {worker} (caller rank {}) panicked", worker % 2)
            });
        }
        let mut out = vec![0.0; 8];
        a.get(0, 0, &mut out);
        assert!(out.iter().all(|&v| v == 4000.0), "{out:?}");
    }

    // ------------------------------------------------ reliable link -----

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            backoff_base: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(4),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn link_retransmits_through_dropped_and_corrupt_window_requests() {
        let plan = FaultPlan::parse("3:drop@0->1#1,corrupt@0->1#2").unwrap();
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let a = DistributedArray::new_with_mode(100, 4, mode) // seg_len 25
                .with_faults(&plan, fast_policy());
            // First remote request on edge 0 -> 1 is dropped, its
            // retransmission is corrupted, the third copy lands.
            a.put(0, 25, &[2.0; 25]);
            let mut out = vec![0.0; 25];
            a.get(0, 25, &mut out);
            assert_eq!(out, vec![2.0; 25], "{}", mode.label());
            let s = a.link_stats();
            assert_eq!(s.retransmits, 2, "{}", mode.label());
            assert_eq!(s.corruptions_detected, 1);
            assert_eq!(s.transient_recoveries, 1, "one request recovered (after two faults)");
            assert_eq!(s.faults_injected, 2);
            assert_eq!(s.acks, s.messages, "every request was eventually delivered");
        }
    }

    #[test]
    fn link_faults_do_not_fire_on_local_one_sided_access() {
        let plan = FaultPlan::parse("3:drop@0->0#1").unwrap();
        let a = DistributedArray::new(100, 4).with_faults(&plan, fast_policy());
        a.put(0, 0, &[1.0; 25]); // own segment: a direct store, no link message
        assert_eq!(a.link_stats().messages, 0);
        assert_eq!(a.link_stats().faults_injected, 0);
        // Data servers route even local access through the link.
        let ds = DistributedArray::new_with_mode(100, 4, DdiMode::DataServer)
            .with_faults(&plan, fast_policy());
        ds.put(0, 0, &[1.0; 25]);
        assert_eq!(ds.link_stats().messages, 1);
        assert_eq!(ds.link_stats().retransmits, 1, "the local-edge drop fired and was absorbed");
    }

    #[test]
    fn link_budget_exhaustion_panics_with_a_named_edge() {
        let plan = FaultPlan::parse("3:drop@0->1#1,drop@0->1#2").unwrap();
        let mut policy = fast_policy();
        policy.max_attempts = 2;
        let a = DistributedArray::new(100, 4).with_faults(&plan, policy);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.put(0, 25, &[1.0; 25]);
        }))
        .expect_err("an exhausted link budget must not silently drop the put");
        let msg = err.downcast_ref::<String>().expect("panic payload is a String");
        assert!(msg.contains("rank 0 -> rank 1"), "panic names the edge: {msg}");
        assert!(msg.contains("2 attempts"), "panic names the budget: {msg}");
    }

    #[test]
    fn unfaulted_window_reports_zero_link_stats() {
        let a = DistributedArray::new(10, 2);
        a.put(0, 5, &[1.0; 5]);
        assert_eq!(a.link_stats(), LinkStats::default());
    }
}
