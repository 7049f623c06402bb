use crate::{Flit, Packet};
use std::sync::Arc;

/// Collects flits at an endpoint and yields the packet when its tail
/// arrives.
///
/// Wormhole switching delivers a packet's flits contiguously at one port,
/// but a module that serves several aggregations (like the AGG) may want
/// explicit per-packet accounting; the reassembler handles either case and
/// checks sequence consistency.
///
/// The in-progress packets sit in a short list searched linearly: an
/// endpoint of the wormhole mesh has at most a few partial packets at a
/// time, so a scan beats hashing the id of every flit.
///
/// # Example
///
/// ```
/// use gnna_noc::{Address, Flit, Packet, Reassembler};
/// use std::sync::Arc;
///
/// let p = Arc::new(Packet::new(Address::new(0, 0, 0), Address::new(1, 0, 0), 128, 42));
/// let mut r = Reassembler::new();
/// assert!(r.push(Flit { packet: Arc::clone(&p), seq: 0, num_flits: 2 }).is_none());
/// let done = r.push(Flit { packet: p, seq: 1, num_flits: 2 }).expect("complete");
/// assert_eq!(done.payload, 42);
/// ```
#[derive(Debug, Default)]
pub struct Reassembler<T> {
    /// `(packet id, flits received)` of each partially received packet.
    in_progress: Vec<(u64, u32)>,
    _marker: std::marker::PhantomData<T>,
}

impl<T> Reassembler<T> {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Reassembler {
            in_progress: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of packets currently partially received.
    pub fn pending(&self) -> usize {
        self.in_progress.len()
    }

    /// Accepts one flit; returns the packet when the flit completes it.
    ///
    /// # Panics
    ///
    /// Panics if flits of a packet arrive out of order (which the wormhole
    /// network never produces).
    pub fn push(&mut self, flit: Flit<T>) -> Option<Arc<Packet<T>>> {
        let id = flit.packet.id;
        let at = self.in_progress.iter().position(|&(p, _)| p == id);
        let received = at.map_or(0, |k| self.in_progress[k].1);
        assert_eq!(
            received, flit.seq,
            "flit {} of packet {id} arrived out of order (expected {received})",
            flit.seq
        );
        let received = received + 1;
        if received == flit.num_flits {
            if let Some(k) = at {
                self.in_progress.swap_remove(k);
            }
            Some(flit.packet)
        } else {
            match at {
                Some(k) => self.in_progress[k].1 = received,
                None => self.in_progress.push((id, received)),
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Address;

    fn flits(id: u64, n: u32, payload: u32) -> Vec<Flit<u32>> {
        let mut p = Packet::new(Address::new(0, 0, 0), Address::new(0, 0, 0), 64, payload);
        p.id = id;
        let p = Arc::new(p);
        (0..n)
            .map(|seq| Flit {
                packet: Arc::clone(&p),
                seq,
                num_flits: n,
            })
            .collect()
    }

    #[test]
    fn completes_on_tail() {
        let mut r = Reassembler::new();
        let fs = flits(1, 3, 5);
        assert!(r.push(fs[0].clone()).is_none());
        assert!(r.push(fs[1].clone()).is_none());
        assert_eq!(r.pending(), 1);
        let p = r.push(fs[2].clone()).unwrap();
        assert_eq!(p.payload, 5);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn interleaved_packets_tracked_independently() {
        let mut r = Reassembler::new();
        let a = flits(1, 2, 10);
        let b = flits(2, 2, 20);
        assert!(r.push(a[0].clone()).is_none());
        assert!(r.push(b[0].clone()).is_none());
        assert_eq!(r.pending(), 2);
        assert_eq!(r.push(b[1].clone()).unwrap().payload, 20);
        assert_eq!(r.push(a[1].clone()).unwrap().payload, 10);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_panics() {
        let mut r = Reassembler::new();
        let fs = flits(1, 3, 0);
        let _ = r.push(fs[1].clone());
    }
}
