//! Per-station packet queues.
//!
//! A station's queue is its private memory of injected and adopted packets
//! (paper §2). A station may transmit queued packets in arbitrary order and
//! can scan its queue in negligible time, so the queue offers arrival-order
//! iteration, per-destination counting, and removal by packet id.
//!
//! The queue is owned by the simulator, not by the algorithm: the engine is
//! the single source of truth for packet custody, which is what lets it
//! verify that every packet is delivered exactly once and never duplicated
//! or lost. Algorithms receive `&IndexedQueue` views.
//!
//! # Representation
//!
//! Queue operations sit on the engine's per-round hot path, so the queue is
//! a *slab*: packets live in a `Vec` of slots, and every live slot is
//! threaded into two intrusive doubly-linked lists, both in arrival order:
//! the list of the whole queue (`prev`/`next`) and the list of its
//! destination (`dprev`/`dnext`). Each destination has an 8-byte header
//! `{head, len}`; its list is circular backwards (the head's `dprev` is the
//! tail), so no tail array is kept. Links and the id index are `u32`, which
//! keeps a slot at 64 bytes. Removed slots are recycled through a free
//! list. Push and removal are O(1) plus one hash-map update for the id
//! index; in steady state — once the slab and the id index have grown to
//! the execution's high-water queue length — no queue operation allocates.
//!
//! Arrival rounds never decrease along either list (the engine enqueues in
//! the current round, and [`IndexedQueue::push`] refuses an earlier one),
//! so the old packets — those that arrived before a marker round — are a
//! prefix of each list, and every old-packet query stops at the first
//! packet that is not old. Hence the cost of each query:
//!
//! - O(1): [`len`](IndexedQueue::len), [`count_for`](IndexedQueue::count_for),
//!   [`oldest`](IndexedQueue::oldest), [`newest`](IndexedQueue::newest),
//!   [`oldest_for`](IndexedQueue::oldest_for),
//!   [`oldest_old`](IndexedQueue::oldest_old) and
//!   [`oldest_old_for`](IndexedQueue::oldest_old_for) (one head check);
//! - O(that destination's packets): [`iter_for`](IndexedQueue::iter_for),
//!   and [`count_old_for`](IndexedQueue::count_old_for) (Count-Hop), which
//!   walks only its old ones;
//! - O(all packets): [`iter`](IndexedQueue::iter), and
//!   [`iter_old`](IndexedQueue::iter_old) and
//!   [`count_old`](IndexedQueue::count_old) (Orchestra, Adjust-Window's
//!   window snapshot), which walk only the old ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::packet::{Packet, PacketId, Round, StationId};

/// Multiply-mix hasher for the `PacketId → slot` index. Packet ids are
/// dense sequential `u64`s and the map is only ever point-queried (never
/// iterated), so the default SipHash buys nothing here but costs a
/// meaningful slice of every delivery; one odd-constant multiply mixes the
/// id into the table's high bits deterministically on every platform.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // generic fallback (FNV-1a); the id index only ever hashes u64s
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, i: u64) {
        let mut h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.0 = h;
    }
}

type IdIndex = HashMap<PacketId, u32, BuildHasherDefault<IdHasher>>;

/// A packet at rest in a station's queue, with arrival bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// Round the packet arrived at this station (injection or adoption).
    pub arrived: Round,
    /// Arrival sequence number local to this station; strictly increasing,
    /// breaks ties between packets arriving in the same round.
    pub seq: u64,
}

/// Sentinel "no slot" index for the intrusive links.
const NIL: u32 = u32::MAX;

/// One slab slot: a queued packet threaded into the queue's arrival list
/// and its destination's arrival list. Freed slots keep their (stale)
/// payload and reuse `next` as the free-list link; only slots reachable
/// from `head` are live.
#[derive(Clone, Copy, Debug)]
struct Slot {
    qp: QueuedPacket,
    prev: u32,
    next: u32,
    /// Previous slot for the same destination; at the destination's head,
    /// its tail.
    dprev: u32,
    /// Next slot for the same destination; `NIL` at its tail.
    dnext: u32,
}

// `u32` links keep a slot at 64 bytes; wider ones would grow a deep
// backlog's memory in proportion to its length.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

/// One destination's list: its oldest slot and its length.
#[derive(Clone, Copy, Debug)]
struct DestList {
    head: u32,
    len: u32,
}

impl DestList {
    const EMPTY: Self = Self { head: NIL, len: 0 };
}

/// Arrival-ordered queue indexed by destination, with O(1) push/removal by
/// packet id and steady-state allocation-free operation.
#[derive(Clone, Debug)]
pub struct IndexedQueue {
    slots: Vec<Slot>,
    /// Head of the free list (threaded through `Slot::next`).
    free_head: u32,
    /// Oldest live slot (front of the arrival order).
    head: u32,
    /// Newest live slot (back of the arrival order).
    tail: u32,
    len: usize,
    slot_of: IdIndex,
    dests: Vec<DestList>,
    next_seq: u64,
}

impl Default for IndexedQueue {
    fn default() -> Self {
        Self::new(0)
    }
}

impl IndexedQueue {
    /// An empty queue for a system of `n` stations.
    pub fn new(n: usize) -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            slot_of: IdIndex::default(),
            dests: vec![DestList::EMPTY; n],
            next_seq: 0,
        }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the packet is currently queued here.
    pub fn contains(&self, id: PacketId) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// Look up a queued packet by id.
    pub fn get(&self, id: PacketId) -> Option<&QueuedPacket> {
        self.slot_of.get(&id).map(|&i| &self.slots[i as usize].qp)
    }

    /// Packets destined to `dest` currently queued.
    pub fn count_for(&self, dest: StationId) -> usize {
        self.dests[dest].len as usize
    }

    /// Iterate over queued packets in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedPacket> {
        Iter::<false> { slots: &self.slots, cur: self.head }
    }

    /// Iterate in arrival order over packets destined to `dest`.
    pub fn iter_for(&self, dest: StationId) -> impl Iterator<Item = &QueuedPacket> + '_ {
        Iter::<true> { slots: &self.slots, cur: self.dests[dest].head }
    }

    /// Iterate in arrival order over packets that arrived strictly before
    /// `marker` (the usual "old packet" predicate of the paper's algorithms).
    pub fn iter_old(&self, marker: Round) -> impl Iterator<Item = &QueuedPacket> + '_ {
        self.iter().take_while(move |qp| qp.arrived < marker)
    }

    /// Count packets that arrived strictly before `marker`.
    pub fn count_old(&self, marker: Round) -> usize {
        self.iter_old(marker).count()
    }

    /// Count packets destined to `dest` that arrived strictly before `marker`.
    pub fn count_old_for(&self, dest: StationId, marker: Round) -> usize {
        self.iter_for(dest).take_while(|qp| qp.arrived < marker).count()
    }

    /// The earliest-arrived packet.
    pub fn oldest(&self) -> Option<&QueuedPacket> {
        self.qp_at(self.head)
    }

    /// The latest-arrived packet.
    pub fn newest(&self) -> Option<&QueuedPacket> {
        self.qp_at(self.tail)
    }

    /// The earliest-arrived packet destined to `dest`.
    pub fn oldest_for(&self, dest: StationId) -> Option<&QueuedPacket> {
        self.qp_at(self.dests[dest].head)
    }

    /// The earliest-arrived packet that arrived strictly before `marker`.
    pub fn oldest_old(&self, marker: Round) -> Option<&QueuedPacket> {
        self.oldest().filter(|qp| qp.arrived < marker)
    }

    /// The earliest-arrived old packet destined to `dest`.
    pub fn oldest_old_for(&self, dest: StationId, marker: Round) -> Option<&QueuedPacket> {
        self.oldest_for(dest).filter(|qp| qp.arrived < marker)
    }

    fn qp_at(&self, idx: u32) -> Option<&QueuedPacket> {
        (idx != NIL).then(|| &self.slots[idx as usize].qp)
    }

    /// Enqueue a packet arriving in round `arrived`.
    ///
    /// Queue mutation is the engine's job during simulation — protocols only
    /// ever see `&IndexedQueue` — but the methods are public so the data
    /// structure can be tested and reused standalone.
    ///
    /// # Panics
    /// Panics if `arrived` precedes the newest queued packet's arrival: the
    /// old-packet queries rely on arrival rounds never decreasing.
    pub fn push(&mut self, packet: Packet, arrived: Round) -> QueuedPacket {
        assert!(
            self.newest().is_none_or(|qp| qp.arrived <= arrived),
            "packet {} arrives at round {arrived}, before the newest queued packet",
            packet.id
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let qp = QueuedPacket { packet, arrived, seq };
        let recycled = self.free_head != NIL;
        let idx = if recycled {
            self.free_head
        } else {
            u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("station queue exceeds u32::MAX - 1 packets")
        };
        let mut list = self.dests[packet.dest];
        let dprev = if list.head == NIL { idx } else { self.slots[list.head as usize].dprev };
        let slot = Slot { qp, prev: self.tail, next: NIL, dprev, dnext: NIL };
        if recycled {
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
        } else {
            self.slots.push(slot);
        }
        if self.tail != NIL {
            self.slots[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        if list.head == NIL {
            list.head = idx;
        } else {
            self.slots[dprev as usize].dnext = idx;
            self.slots[list.head as usize].dprev = idx;
        }
        list.len += 1;
        self.dests[packet.dest] = list;
        let prev = self.slot_of.insert(packet.id, idx);
        debug_assert!(prev.is_none(), "packet {} enqueued twice", packet.id);
        self.len += 1;
        qp
    }

    /// Remove a packet by id.
    pub fn remove(&mut self, id: PacketId) -> Option<QueuedPacket> {
        let idx = self.slot_of.remove(&id)?;
        let Slot { qp, prev, next, dprev, dnext } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let list = &mut self.dests[qp.packet.dest];
        if list.head == idx {
            // the new head (if any) inherits the pointer to the tail
            list.head = dnext;
            if dnext != NIL {
                self.slots[dnext as usize].dprev = dprev;
            }
        } else {
            self.slots[dprev as usize].dnext = dnext;
            // a removed tail's successor on the backward circle is the head
            let after = if dnext != NIL { dnext } else { list.head };
            self.slots[after as usize].dprev = dprev;
        }
        list.len -= 1;
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        Some(qp)
    }
}

/// Arrival-order walk of the whole queue, or (`BY_DEST`) of one
/// destination's list.
struct Iter<'a, const BY_DEST: bool> {
    slots: &'a [Slot],
    cur: u32,
}

impl<'a, const BY_DEST: bool> Iterator for Iter<'a, BY_DEST> {
    type Item = &'a QueuedPacket;

    fn next(&mut self) -> Option<&'a QueuedPacket> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.slots[self.cur as usize];
        self.cur = if BY_DEST { slot.dnext } else { slot.next };
        Some(&slot.qp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, dest: StationId) -> Packet {
        Packet { id: PacketId(id), dest, injected_round: 0, origin: 0 }
    }

    fn filled() -> IndexedQueue {
        let mut q = IndexedQueue::new(4);
        q.push(pkt(0, 1), 0);
        q.push(pkt(1, 2), 0);
        q.push(pkt(2, 1), 3);
        q.push(pkt(3, 3), 5);
        q
    }

    #[test]
    fn arrival_order_is_preserved() {
        let q = filled();
        let ids: Vec<u64> = q.iter().map(|qp| qp.packet.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_destination_counts() {
        let q = filled();
        assert_eq!(q.count_for(1), 2);
        assert_eq!(q.count_for(2), 1);
        assert_eq!(q.count_for(0), 0);
    }

    #[test]
    fn old_packet_predicates() {
        let q = filled();
        assert_eq!(q.count_old(3), 2);
        assert_eq!(q.count_old_for(1, 4), 2);
        assert_eq!(q.count_old_for(1, 1), 1);
        assert_eq!(q.oldest_old(1).unwrap().packet.id.0, 0);
        assert_eq!(q.oldest_old_for(1, 4).unwrap().packet.id.0, 0);
        assert!(q.oldest_old(0).is_none());
    }

    #[test]
    fn remove_updates_everything() {
        let mut q = filled();
        let removed = q.remove(PacketId(0)).unwrap();
        assert_eq!(removed.packet.dest, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.count_for(1), 1);
        assert!(!q.contains(PacketId(0)));
        assert!(q.remove(PacketId(0)).is_none());
        assert_eq!(q.oldest().unwrap().packet.id.0, 1);
        assert_eq!(q.oldest_for(1).unwrap().packet.id.0, 2);
    }

    #[test]
    fn seq_is_monotonic_across_removals() {
        let mut q = IndexedQueue::new(2);
        q.push(pkt(0, 1), 0);
        q.remove(PacketId(0));
        let qp = q.push(pkt(1, 1), 1);
        assert_eq!(qp.seq, 1);
    }

    #[test]
    #[should_panic(expected = "before the newest queued packet")]
    fn arrivals_must_not_go_back_in_time() {
        let mut q = filled();
        q.push(pkt(9, 1), 4);
    }

    #[test]
    fn get_by_id() {
        let q = filled();
        assert_eq!(q.get(PacketId(2)).unwrap().arrived, 3);
        assert!(q.get(PacketId(9)).is_none());
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        // Churn far more packets than the peak queue length: the slab must
        // stay at the high-water mark, recycling freed slots.
        let mut q = IndexedQueue::new(2);
        for id in 0..4 {
            q.push(pkt(id, 1), id);
        }
        for id in 4..1_000 {
            q.remove(PacketId(id - 4)).expect("oldest still queued");
            q.push(pkt(id, 1), id);
            assert_eq!(q.len(), 4);
        }
        assert_eq!(q.slots.len(), 4, "slab must not grow past the high-water mark");
        let ids: Vec<u64> = q.iter().map(|qp| qp.packet.id.0).collect();
        assert_eq!(ids, vec![996, 997, 998, 999], "arrival order survives recycling");
        assert_eq!(q.newest().unwrap().packet.id.0, 999);
    }

    #[test]
    fn interior_removal_keeps_links_consistent() {
        let mut q = filled();
        q.remove(PacketId(1)).unwrap(); // interior
        q.remove(PacketId(3)).unwrap(); // tail
        let ids: Vec<u64> = q.iter().map(|qp| qp.packet.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(q.newest().unwrap().packet.id.0, 2);
        q.push(pkt(9, 3), 9);
        let ids: Vec<u64> = q.iter().map(|qp| qp.packet.id.0).collect();
        assert_eq!(ids, vec![0, 2, 9]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let mut q = filled();
        for id in 0..4 {
            q.remove(PacketId(id)).unwrap();
        }
        assert!(q.is_empty());
        assert!(q.oldest().is_none());
        assert!(q.newest().is_none());
        assert_eq!(q.iter().count(), 0);
        let qp = q.push(pkt(7, 2), 11);
        assert_eq!(qp.seq, 4, "sequence numbers keep increasing");
        assert_eq!(q.oldest().unwrap().packet.id.0, 7);
    }
}
