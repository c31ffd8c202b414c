//! The correctness oracle every run goes through, traced or not.
//!
//! Checked per a-delivery: the message was generated for this cluster, its
//! payload checksum is what the generator made, and this process has not
//! a-delivered it before. Checked at the end: the processes' a-delivery
//! sequences are prefix-consistent (identical when every message
//! completed). Any violation aborts the run before a metric is printed.

use iabc_types::{AppMessage, ProcessId};

use crate::gen::{checksum, index_of, Generator};

#[derive(Debug)]
pub struct Oracle {
    /// Index of the first message generated for this cluster.
    first: u64,
    /// Per process: message indices in a-delivery order.
    orders: Vec<Vec<u64>>,
    /// Per process: `seen[p][index - first]`.
    seen: Vec<Vec<bool>>,
}

impl Oracle {
    /// An oracle for a fresh `n`-process cluster whose first message will
    /// be the generator's next one.
    pub fn new(n: usize, gen: &Generator) -> Self {
        Oracle {
            first: gen.generated(),
            orders: vec![Vec::new(); n],
            seen: vec![Vec::new(); n],
        }
    }

    /// Records one a-delivery at `p` and returns the message's index.
    pub fn on_deliver(
        &mut self,
        gen: &Generator,
        p: ProcessId,
        msg: &AppMessage,
    ) -> Result<u64, String> {
        let payload = msg.payload();
        let index = index_of(payload).ok_or_else(|| {
            format!(
                "{p} a-delivered {} with a payload too short to stamp",
                msg.id()
            )
        })?;
        let expected = gen
            .expected_sum(index)
            .filter(|_| index >= self.first)
            .ok_or_else(|| {
                format!("{p} a-delivered message {index}, which was never a-broadcast here")
            })?;
        if checksum(payload.bytes()) != expected {
            return Err(format!(
                "{p} a-delivered message {index} with a corrupted payload"
            ));
        }
        let seen = &mut self.seen[p.as_usize()];
        // index >= first was checked above; the offset is a message count.
        let slot = (index - self.first) as usize;
        if seen.len() <= slot {
            seen.resize(slot + 1, false);
        }
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("{p} a-delivered message {index} twice"));
        }
        self.orders[p.as_usize()].push(index);
        Ok(index)
    }

    /// Total order: every pair of sequences agrees on its common prefix.
    pub fn finish(&self) -> Result<(), String> {
        let longest = self
            .orders
            .iter()
            .max_by_key(|o| o.len())
            .ok_or_else(|| "no processes".to_string())?;
        for (p, order) in self.orders.iter().enumerate() {
            if let Some(at) = order.iter().zip(longest).position(|(a, b)| a != b) {
                return Err(format!(
                    "a-delivery order diverges at position {at}: p{p} has message {}, another process has {}",
                    order[at], longest[at]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SenderOrder;
    use iabc_types::{MsgId, Payload, Time};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn app(payload: Payload) -> AppMessage {
        AppMessage::new(MsgId::new(p(0), 0), payload, Time::ZERO)
    }

    #[test]
    fn accepts_identical_and_prefix_orders() {
        let mut gen = Generator::new(1, 3, 64, SenderOrder::Random);
        let mut oracle = Oracle::new(3, &gen);
        let msgs: Vec<AppMessage> = (0..3).map(|_| app(gen.next_message().2)).collect();
        for m in &msgs {
            assert!(oracle.on_deliver(&gen, p(0), m).is_ok());
        }
        for m in &msgs[..2] {
            assert!(oracle.on_deliver(&gen, p(1), m).is_ok());
        }
        assert!(
            oracle.finish().is_ok(),
            "p1 and p2 hold prefixes of p0's order"
        );
    }

    #[test]
    fn rejects_duplicates_corruption_strangers_and_divergence() {
        let mut gen = Generator::new(1, 3, 64, SenderOrder::Random);
        let stale = app(gen.next_message().2);
        let mut oracle = Oracle::new(3, &gen);
        let a = app(gen.next_message().2);
        let b = app(gen.next_message().2);

        assert!(
            oracle.on_deliver(&gen, p(0), &stale).is_err(),
            "generated for an earlier cluster"
        );
        let mut bytes = a.payload().bytes().to_vec();
        bytes[20] ^= 1;
        assert!(
            oracle
                .on_deliver(&gen, p(0), &app(Payload::from(bytes)))
                .is_err(),
            "flipped bit"
        );
        let mut bytes = a.payload().bytes().to_vec();
        bytes[..8].copy_from_slice(&99u64.to_le_bytes());
        assert!(
            oracle
                .on_deliver(&gen, p(0), &app(Payload::from(bytes)))
                .is_err(),
            "never generated"
        );

        assert!(oracle.on_deliver(&gen, p(0), &a).is_ok());
        assert!(
            oracle.on_deliver(&gen, p(0), &a).is_err(),
            "delivered twice"
        );
        assert!(oracle.on_deliver(&gen, p(0), &b).is_ok());
        assert!(oracle.on_deliver(&gen, p(1), &b).is_ok());
        assert!(oracle.on_deliver(&gen, p(1), &a).is_ok());
        assert!(oracle.finish().is_err(), "p0 and p1 disagree on the order");
    }
}
