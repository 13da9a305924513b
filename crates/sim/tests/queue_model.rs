//! Model-based property test: `IndexedQueue` against a naive reference
//! implementation (a plain `Vec` in arrival order), driven by random but
//! seeded operation sequences. Every query the algorithms rely on must
//! agree after every operation.

use emac_sim::{IndexedQueue, Packet, PacketId, SmallRng, StationId};

const N: usize = 6;

#[derive(Clone, Debug)]
enum Op {
    /// Enqueue for `dest`, `advance` rounds after the previous arrival.
    Push { dest: StationId, advance: u64 },
    /// Remove the `index`-th packet (mod length) in arrival order.
    Remove { index: usize },
    /// Remove the oldest packet for `dest`.
    RemoveHead { dest: StationId },
    /// Remove the newest packet for `dest`.
    RemoveTail { dest: StationId },
    /// Remove a packet for `dest` strictly between its oldest and newest.
    RemoveInterior { dest: StationId, index: usize },
    /// Remove every packet for `dest`.
    Drain { dest: StationId },
    // queries run after every op
}

fn random_ops(rng: &mut SmallRng) -> Vec<Op> {
    let len = rng.random_range(1..160);
    (0..len)
        .map(|_| {
            let dest = rng.random_range(0..N);
            // pushes twice as likely as removals, so lists grow long
            // enough to have interiors
            match rng.random_range(0..24) {
                0..=15 => Op::Push { dest, advance: rng.random_range_u64(0..3) },
                16..=17 => Op::Remove { index: rng.random_range(0..64) },
                18..=19 => Op::RemoveHead { dest },
                20..=21 => Op::RemoveTail { dest },
                22 => Op::RemoveInterior { dest, index: rng.random_range(0..64) },
                _ => Op::Drain { dest },
            }
        })
        .collect()
}

/// The reference: packets in arrival order with their metadata.
#[derive(Default)]
struct Model {
    items: Vec<(Packet, u64)>, // (packet, arrived), arrival order
}

impl Model {
    fn push(&mut self, p: Packet, arrived: u64) {
        self.items.push((p, arrived));
    }
    fn remove(&mut self, id: PacketId) -> bool {
        match self.items.iter().position(|(p, _)| p.id == id) {
            Some(i) => {
                self.items.remove(i);
                true
            }
            None => false,
        }
    }
    fn ids_for(&self, d: StationId) -> Vec<PacketId> {
        self.items.iter().filter(|(p, _)| p.dest == d).map(|(p, _)| p.id).collect()
    }
    fn count_for(&self, d: StationId) -> usize {
        self.ids_for(d).len()
    }
    fn ids_old(&self, marker: u64) -> Vec<PacketId> {
        self.items.iter().filter(|&&(_, a)| a < marker).map(|(p, _)| p.id).collect()
    }
    fn count_old_for(&self, d: StationId, marker: u64) -> usize {
        self.items.iter().filter(|&&(p, a)| p.dest == d && a < marker).count()
    }
    fn oldest_old(&self, marker: u64) -> Option<PacketId> {
        self.ids_old(marker).first().copied()
    }
    fn oldest_old_for(&self, d: StationId, marker: u64) -> Option<PacketId> {
        self.items.iter().find(|&&(p, a)| p.dest == d && a < marker).map(|(p, _)| p.id)
    }
}

/// How often each kind of per-destination removal really ran, so the test
/// proves it exercised them rather than hoping it did.
#[derive(Default, Debug)]
struct Coverage {
    /// Removed the oldest of at least two packets for its destination.
    head: usize,
    /// Removed the newest of at least two packets for its destination.
    tail: usize,
    /// Removed a packet with older and newer packets for its destination.
    interior: usize,
    /// Pushed to a destination that an earlier `Drain` had emptied.
    refills: usize,
}

#[test]
fn queue_agrees_with_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0x0eee);
    let mut seen = Coverage::default();
    for _case in 0..64 {
        let ops = random_ops(&mut rng);
        let mut q = IndexedQueue::new(N);
        let mut m = Model::default();
        let mut next_id = 0u64;
        let mut arrival_clock = 0u64; // arrivals must be non-decreasing
        let mut drained = [false; N];
        for op in ops {
            // Packets of one destination chosen for removal, by their
            // position in that destination's arrival order.
            let victim = match op {
                Op::Push { dest, advance } => {
                    arrival_clock += advance;
                    let p = Packet {
                        id: PacketId(next_id),
                        dest,
                        injected_round: arrival_clock,
                        origin: 0,
                    };
                    next_id += 1;
                    q.push(p, arrival_clock);
                    m.push(p, arrival_clock);
                    if std::mem::take(&mut drained[dest]) {
                        seen.refills += 1;
                    }
                    Vec::new()
                }
                Op::Remove { index } => match m.items.len() {
                    0 => Vec::new(),
                    len => vec![m.items[index % len].0.id],
                },
                Op::RemoveHead { dest } => m.ids_for(dest).first().copied().into_iter().collect(),
                Op::RemoveTail { dest } => m.ids_for(dest).last().copied().into_iter().collect(),
                Op::RemoveInterior { dest, index } => {
                    let ids = m.ids_for(dest);
                    if ids.len() >= 3 {
                        vec![ids[1 + index % (ids.len() - 2)]]
                    } else {
                        Vec::new()
                    }
                }
                Op::Drain { dest } => {
                    let ids = m.ids_for(dest);
                    drained[dest] |= !ids.is_empty();
                    ids
                }
            };
            for id in victim {
                let dest = q.get(id).expect("victim is queued").packet.dest;
                let ids = m.ids_for(dest);
                let pos = ids.iter().position(|&x| x == id).expect("victim in model");
                if ids.len() >= 2 && pos == 0 {
                    seen.head += 1;
                } else if ids.len() >= 2 && pos == ids.len() - 1 {
                    seen.tail += 1;
                } else if ids.len() >= 3 {
                    seen.interior += 1;
                }
                assert!(m.remove(id));
                assert_eq!(q.remove(id).map(|qp| qp.packet.id), Some(id));
                assert!(q.remove(id).is_none(), "a removed packet is gone");
            }
            // full agreement after every operation
            assert_eq!(q.len(), m.items.len());
            let q_order: Vec<u64> = q.iter().map(|qp| qp.packet.id.0).collect();
            let m_order: Vec<u64> = m.items.iter().map(|(p, _)| p.id.0).collect();
            assert_eq!(q_order, m_order, "arrival order must match");
            for d in 0..N {
                assert_eq!(q.count_for(d), m.count_for(d));
                let q_for: Vec<PacketId> = q.iter_for(d).map(|qp| qp.packet.id).collect();
                assert_eq!(q_for, m.ids_for(d), "per-destination order must match");
                assert_eq!(q.oldest_for(d).map(|qp| qp.packet.id), m.ids_for(d).first().copied());
            }
            let markers = [0, 5, 50, arrival_clock / 2, arrival_clock, arrival_clock + 1, u64::MAX];
            for marker in markers {
                let q_old: Vec<PacketId> = q.iter_old(marker).map(|qp| qp.packet.id).collect();
                assert_eq!(q_old, m.ids_old(marker));
                assert_eq!(q.count_old(marker), m.ids_old(marker).len());
                assert_eq!(q.oldest_old(marker).map(|qp| qp.packet.id), m.oldest_old(marker));
                for d in 0..N {
                    assert_eq!(q.count_old_for(d, marker), m.count_old_for(d, marker));
                    assert_eq!(
                        q.oldest_old_for(d, marker).map(|qp| qp.packet.id),
                        m.oldest_old_for(d, marker)
                    );
                }
            }
            assert_eq!(q.oldest().map(|qp| qp.packet.id.0), m.items.first().map(|(p, _)| p.id.0));
            assert_eq!(q.newest().map(|qp| qp.packet.id.0), m.items.last().map(|(p, _)| p.id.0));
        }
    }
    assert!(
        seen.head > 50 && seen.tail > 50 && seen.interior > 50 && seen.refills > 10,
        "operations must cover every removal position and refills: {seen:?}"
    );
}
