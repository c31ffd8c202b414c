//! Seeded input generation: payload bytes and sender order come from the
//! seed, and the program under test sees nothing but the generated
//! commands.

use iabc_types::{Payload, ProcessId};

/// splitmix64: one multiply-xorshift round per 8 bytes, so filling a 16 KiB
/// payload costs the generator thread a couple of microseconds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Word-wise multiplicative checksum of a payload (not cryptographic: it
/// only has to tell the generator's bytes from anything else, cheaply
/// enough to run on every a-delivery without perturbing the measurement).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        // chunks_exact(8) yields 8-byte slices, so the conversion holds.
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The message index the generator stamped into a payload's first 8 bytes.
pub fn index_of(payload: &Payload) -> Option<u64> {
    let head = payload.bytes().get(..8)?;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

/// How the generator picks the process that a-broadcasts each message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderOrder {
    /// Drawn from the seed per message.
    Random,
    /// `i mod n`, starting at an offset drawn from the seed.
    RoundRobin,
}

/// One workload's input stream. Message `i` is
/// `[i as u64 LE][seeded bytes…]`, a-broadcast by a seeded sender; the
/// generator remembers each payload's checksum so the oracle can verify
/// every a-delivery against what was actually made.
#[derive(Debug)]
pub struct Generator {
    rng: Rng,
    n: usize,
    payload_len: usize,
    order: SenderOrder,
    rr_offset: u64,
    sums: Vec<u64>,
}

impl Generator {
    /// # Panics
    ///
    /// Panics if `payload_len < 8` (no room for the index stamp).
    pub fn new(seed: u64, n: usize, payload_len: usize, order: SenderOrder) -> Self {
        assert!(
            payload_len >= 8,
            "payload must hold the 8-byte message index"
        );
        let mut rng = Rng::new(seed);
        let rr_offset = rng.next_u64();
        Generator {
            rng,
            n,
            payload_len,
            order,
            rr_offset,
            sums: Vec::new(),
        }
    }

    /// Number of messages generated so far (= the next message's index).
    pub fn generated(&self) -> u64 {
        self.sums.len() as u64
    }

    /// The checksum of message `index`'s payload, if it was generated.
    pub fn expected_sum(&self, index: u64) -> Option<u64> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.sums.get(i))
            .copied()
    }

    /// Generates the next message: its index, sender and payload.
    pub fn next_message(&mut self) -> (u64, ProcessId, Payload) {
        let index = self.generated();
        let mut bytes = Vec::with_capacity(self.payload_len + 8);
        bytes.extend_from_slice(&index.to_le_bytes());
        while bytes.len() < self.payload_len {
            bytes.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        bytes.truncate(self.payload_len);
        let draw = match self.order {
            SenderOrder::Random => self.rng.next_u64(),
            SenderOrder::RoundRobin => self.rr_offset.wrapping_add(index),
        };
        // n <= 3 in every workload; the remainder always fits.
        let sender = ProcessId::new((draw % self.n as u64) as u16);
        self.sums.push(checksum(&bytes));
        (index, sender, Payload::from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_stamp_reads_back() {
        let mut a = Generator::new(42, 3, 64, SenderOrder::Random);
        let mut b = Generator::new(42, 3, 64, SenderOrder::Random);
        let mut c = Generator::new(43, 3, 64, SenderOrder::Random);
        let mut differs = false;
        for i in 0..100 {
            let (ia, sa, pa) = a.next_message();
            let (_, sb, pb) = b.next_message();
            let (_, _, pc) = c.next_message();
            assert_eq!((ia, sa, &pa), (i, sb, &pb));
            assert_eq!(pa.len(), 64);
            assert_eq!(index_of(&pa), Some(i));
            assert_eq!(a.expected_sum(i), Some(checksum(pa.bytes())));
            differs |= pa != pc;
        }
        assert!(differs, "another seed gives other payloads");
        assert_eq!(a.expected_sum(100), None);
    }

    #[test]
    fn round_robin_visits_every_sender_in_turn() {
        let mut g = Generator::new(7, 3, 16, SenderOrder::RoundRobin);
        let senders: Vec<u16> = (0..6).map(|_| g.next_message().1.index()).collect();
        assert_eq!(senders[..3], senders[3..]);
        let mut sorted = senders[..3].to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2]);
    }
}
