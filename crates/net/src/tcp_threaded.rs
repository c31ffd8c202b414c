//! Thread-per-connection TCP cluster: the architecture the event-driven
//! [`crate::tcp::TcpCluster`] replaced, kept as the measured control for
//! the `loopback_cluster` bench.
//!
//! Per process it spends `2·(n−1)` I/O threads plus one injector thread:
//! a blocking reader thread per accepted connection (decoding through the
//! copying [`FrameBuffer`] re-assembly path) and a flusher thread per
//! peer parked on the outbound [`PeerQueue`] condvar. Outbound semantics
//! match the event loop exactly — ordering-before-bulk priority drain,
//! whole-backlog batches, one vectored write per batch — so a bench
//! comparison isolates the *thread model and copy count*, not queueing
//! policy.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use iabc_runtime::Node;
use iabc_types::{Decode, Encode, ProcessId};

use crate::adapter::{MsgOverTcp, OutboundMesh};
use crate::cluster::ThreadCluster;
use crate::codec::{write_frame_into, FrameBuffer, Tagged, TaggedOwned};
use crate::queue::PeerQueue;
use crate::NetOutput;

/// A mesh of loop-back TCP connections between `n` local "processes",
/// with a blocking reader/flusher thread pair per connection.
///
/// Superseded by the event-driven [`crate::tcp::TcpCluster`]; retained as
/// the control arm of the transport bench and as the reference
/// implementation of the blocking I/O path.
pub struct ThreadedTcpCluster<N: Node>
where
    N::Msg: Encode,
{
    inner: ThreadCluster<MsgOverTcp<N>>,
    outbound: OutboundMesh<N::Msg>,
    flusher_handles: Vec<JoinHandle<()>>,
    reader_handles: Vec<JoinHandle<()>>,
    /// One `try_clone` of every accepted stream, kept so [`shutdown`]
    /// (`ThreadedTcpCluster::shutdown`) can shut the sockets down and
    /// unblock readers parked in `read()` on a peer that died without
    /// closing its end.
    reader_streams: Vec<TcpStream>,
}

/// The flusher loop of one peer connection: drain the queue in priority
/// order, encode the batch into a reused scratch buffer, push it with one
/// vectored write (see [`write_batch`]). A write failure means the peer is
/// gone: close the queue (future pushes drop silently, like sends to a
/// crashed process) and exit.
fn flusher_loop<M: Encode>(queue: &PeerQueue<M>, mut stream: TcpStream, from: ProcessId) {
    let mut scratch: Vec<u8> = Vec::new();
    let mut bounds: Vec<usize> = Vec::new();
    while let Some(batch) = queue.next_batch() {
        scratch.clear();
        bounds.clear();
        for msg in &batch {
            // An oversized frame is unencodable, not a transport error:
            // skip it (write_frame_into already rolled the buffer back).
            if write_frame_into(&Tagged { from, msg }, &mut scratch).is_ok() {
                bounds.push(scratch.len());
            }
        }
        if write_batch(&mut stream, &scratch, &bounds).is_err() {
            queue.close();
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Pushes one encoded batch to the socket: a single `write_vectored` over
/// the per-frame slices (`bounds[i]` is the end offset of frame `i` in
/// `scratch`), so the kernel gathers the frames in one syscall without a
/// second userspace copy. Sockets are free to accept only part of an
/// iovec, so a partial write falls back to `write_all` of the remaining
/// bytes — the frames are contiguous in the scratch buffer, which makes
/// the remainder a plain byte suffix regardless of which frame the short
/// write landed in.
fn write_batch(
    stream: &mut TcpStream,
    scratch: &[u8],
    bounds: &[usize],
) -> std::io::Result<()> {
    if scratch.is_empty() {
        return Ok(());
    }
    let mut slices: Vec<std::io::IoSlice<'_>> = Vec::with_capacity(bounds.len());
    let mut start = 0;
    for &end in bounds {
        slices.push(std::io::IoSlice::new(&scratch[start..end]));
        start = end;
    }
    let written = loop {
        match stream.write_vectored(&slices) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    if written < scratch.len() {
        stream.write_all(&scratch[written..])?;
    }
    Ok(())
}

impl<N> ThreadedTcpCluster<N>
where
    N: Node + Send + 'static,
    N::Msg: Encode + Decode + Send,
    N::Command: Send,
    N::Output: Send,
{
    /// Binds `n` loop-back listeners, connects the full mesh, and starts
    /// the node threads.
    ///
    /// # Panics
    ///
    /// Panics if sockets cannot be bound or connected (loop-back only, so
    /// this indicates local resource exhaustion).
    pub fn start(n: usize, mut factory: impl FnMut(ProcessId) -> N) -> Self {
        assert!(n > 0, "need at least one process");
        // Process ids travel as u16 in the handshake and frame tags; every
        // `i as u16` below is bounded by this assert.
        assert!(n <= usize::from(u16::MAX) + 1, "process ids are u16 on the wire");
        // Bind one listener per process on an ephemeral port.
        // Setup-time expects below are documented under `# Panics`: they run
        // before any remote bytes exist, on loop-back sockets only, where a
        // failure means local resource exhaustion and there is no
        // connection to poison yet.
        let listeners: Vec<TcpListener> = (0..n)
            // lint:allow(P1): bootstrap bind, documented panic, no remote input yet
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loop-back listener"))
            .collect();
        let addrs: Vec<_> =
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        // Writer side: from i to j (i != j), an outbound queue drained by a
        // flusher thread that owns the connected stream.
        let mut outbound: OutboundMesh<N::Msg> = (0..n).map(|_| vec![]).collect();
        let mut flusher_handles = Vec::new();
        for (i, row) in outbound.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    row.push(None);
                } else {
                    // lint:allow(P1): bootstrap connect, documented panic, no remote input yet
                    let mut stream = TcpStream::connect(addr).expect("connect to peer");
                    // lint:allow(P1): bootstrap, documented panic, no remote input yet
                    stream.set_nodelay(true).expect("nodelay");
                    // Identify ourselves so the acceptor can route.
                    // lint:allow(P1): bootstrap handshake, documented panic, no remote input yet — lint:allow(W2): i < n and start() asserts n fits in u16
                    stream.write_all(&(i as u16).to_le_bytes()).expect("handshake");
                    let queue = Arc::new(PeerQueue::new());
                    // lint:allow(W2): i < n and start() asserts n fits in u16
                    let from = ProcessId::new(i as u16);
                    let flusher_queue = Arc::clone(&queue);
                    flusher_handles.push(std::thread::spawn(move || {
                        flusher_loop(&flusher_queue, stream, from);
                    }));
                    row.push(Some(queue));
                }
            }
        }

        let writers_for_nodes = outbound.clone();
        let inner = ThreadCluster::start(n, move |p| MsgOverTcp {
            node: factory(p),
            me: p,
            writers: writers_for_nodes[p.as_usize()].clone(),
        });

        // Reader threads: accept n-1 inbound connections per listener and
        // pump decoded frames into the owning node via its command channel —
        // we reuse the ThreadCluster's message path by injecting through a
        // dedicated channel pair.
        let injectors: Vec<Sender<(ProcessId, N::Msg)>> = (0..n)
            .map(|j| {
                let (tx, rx) = unbounded::<(ProcessId, N::Msg)>();
                // lint:allow(W2): j < n and start() asserts n fits in u16
                let inner_tx = inner.message_injector(ProcessId::new(j as u16));
                std::thread::spawn(move || {
                    while let Ok((from, msg)) = rx.recv() {
                        if inner_tx(from, msg).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();

        let mut reader_handles = Vec::new();
        let mut reader_streams = Vec::new();
        for (j, listener) in listeners.into_iter().enumerate() {
            for _ in 0..(n - 1) {
                // lint:allow(P1): bootstrap accept, documented panic, no remote input yet
                let (stream, _) = listener.accept().expect("accept peer connection");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nodelay(true).expect("nodelay");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                reader_streams.push(stream.try_clone().expect("clone reader stream"));
                let inject = injectors[j].clone();
                reader_handles.push(std::thread::spawn(move || {
                    reader_loop::<N>(stream, inject);
                }));
            }
        }

        ThreadedTcpCluster { inner, outbound, flusher_handles, reader_handles, reader_streams }
    }

    /// Sends an application command to process `p`.
    pub fn send_command(&self, p: ProcessId, cmd: N::Command) {
        self.inner.send_command(p, cmd);
    }

    /// Collects outputs for (wall-clock) `dur`.
    pub fn run_for(&mut self, dur: std::time::Duration) -> Vec<NetOutput<N::Output>> {
        self.inner.run_for(dur)
    }

    /// Collects outputs until `count` have arrived or `timeout` elapses.
    pub fn wait_for_outputs(
        &mut self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Vec<NetOutput<N::Output>> {
        self.inner.wait_for_outputs(count, timeout)
    }

    /// Stops node threads and closes sockets.
    pub fn shutdown(self) {
        // Closing the queues lets each flusher drain its backlog and shut
        // its stream down, which in turn unblocks the remote readers.
        for row in &self.outbound {
            for q in row.iter().flatten() {
                q.close();
            }
        }
        for h in self.flusher_handles {
            let _ = h.join();
        }
        self.inner.shutdown();
        // A reader whose peer died *without* closing its socket (a hung or
        // killed flusher never reaches its own shutdown call) stays parked
        // in `read()` forever; shutting the accepted sockets down here
        // forces those reads to return, so the joins below can never hang.
        for s in &self.reader_streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in self.reader_handles {
            let _ = h.join();
        }
    }
}

fn reader_loop<N>(mut stream: TcpStream, inject: Sender<(ProcessId, N::Msg)>)
where
    N: Node,
    N::Msg: Decode,
{
    // Handshake: the 2-byte sender id.
    let mut id = [0u8; 2];
    if std::io::Read::read_exact(&mut stream, &mut id).is_err() {
        return;
    }
    let _claimed_sender = ProcessId::new(u16::from_le_bytes(id));
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Drain every complete frame before reading more bytes.
        loop {
            match frames.next_frame::<TaggedOwned<N::Msg>>() {
                Ok(Some(t)) => {
                    if inject.send((t.from, t.msg)).is_err() {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt or oversized frame: the buffer is poisoned
                    // (framing is unrecoverable), so tear the connection
                    // down instead of spinning on the same bytes.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
        match std::io::Read::read(&mut stream, &mut chunk) {
            Ok(0) => return, // peer closed
            Ok(read) => frames.extend(&chunk[..read]),
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame;
    use crate::queue::tests::Classed;
    use iabc_runtime::Context;
    use iabc_types::{CodecError, WireSize};

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u32);
    impl WireSize for Num {
        fn wire_size(&self) -> usize {
            4
        }
    }
    impl Encode for Num {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Num {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Num(u32::decode(buf)?))
        }
    }

    struct Echo;
    impl Node for Echo {
        type Msg = Num;
        type Command = u32;
        type Output = (ProcessId, u32);
        fn on_command(&mut self, cmd: u32, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.send_to_all(Num(cmd));
        }
        fn on_message(&mut self, from: ProcessId, m: Num, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.output((from, m.0));
        }
    }

    #[test]
    fn corrupt_stream_drops_connection_after_first_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let (tx, rx) = unbounded::<(ProcessId, Num)>();
        let reader = std::thread::spawn(move || reader_loop::<Echo>(server, tx));

        // Handshake, then one good frame.
        client.write_all(&1u16.to_le_bytes()).unwrap();
        write_frame(&Tagged { from: ProcessId::new(1), msg: &Num(42) }, &mut client).unwrap();
        // A malformed frame: the length prefix says 2 bytes, which can
        // never decode as a Tagged<Num>.
        client.write_all(&2u32.to_le_bytes()).unwrap();
        client.write_all(&[0xAB, 0xCD]).unwrap();
        // A good frame after the corruption must never be delivered (the
        // reader may already have torn the socket down — ignore errors).
        let _ = write_frame(&Tagged { from: ProcessId::new(1), msg: &Num(7) }, &mut client);

        let first = rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(first.unwrap(), (ProcessId::new(1), Num(42)));
        // The reader drops the connection and its injector on first error:
        // the channel disconnects instead of yielding Num(7).
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).is_err(),
            "no frame may be delivered after a decode error"
        );
        reader.join().unwrap();
    }

    #[test]
    fn shutdown_unblocks_a_reader_stuck_on_a_silent_peer() {
        // A peer that dies without closing its socket (hung flusher, killed
        // process) leaves the reader parked in read(); shutting the
        // accepted socket down — what ThreadedTcpCluster::shutdown does
        // before joining — must force that read to return.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let shutdown_handle = server.try_clone().unwrap();
        let (tx, rx) = unbounded::<(ProcessId, Num)>();
        let (done_tx, done_rx) = unbounded::<()>();
        std::thread::spawn(move || {
            reader_loop::<Echo>(server, tx);
            let _ = done_tx.send(());
        });
        // Handshake, then silence: the reader is now blocked in read().
        client.write_all(&1u16.to_le_bytes()).unwrap();
        assert!(
            done_rx.recv_timeout(std::time::Duration::from_millis(100)).is_err(),
            "reader must still be blocked on the silent peer"
        );
        shutdown_handle.shutdown(std::net::Shutdown::Both).unwrap();
        assert!(
            done_rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
            "socket shutdown must unblock the reader"
        );
        drop(client);
        drop(rx);
    }

    #[test]
    fn fanout_over_threaded_tcp() {
        let mut cluster = ThreadedTcpCluster::start(3, |_| Echo);
        cluster.send_command(ProcessId::new(1), 77);
        let outs = cluster.wait_for_outputs(3, std::time::Duration::from_secs(5));
        assert_eq!(outs.len(), 3, "all three processes must receive the fanout");
        assert!(outs.iter().all(|o| o.output == (ProcessId::new(1), 77)));
        cluster.shutdown();
    }

    #[test]
    fn flusher_coalesces_a_batch_into_one_stream_write() {
        // Drive a real flusher thread over a socket pair and check that
        // every frame of a mixed burst arrives, ordering frames first.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let queue: Arc<PeerQueue<Classed>> = Arc::new(PeerQueue::new());
        // Fill the queue *before* the flusher starts, so the whole burst
        // is one batch (and one vectored write).
        for v in [2, 4, 1, 6, 3, 8, 5] {
            queue.enqueue(Classed(v));
        }
        let fq = Arc::clone(&queue);
        let flusher =
            std::thread::spawn(move || flusher_loop(&fq, stream, ProcessId::new(0)));

        let mut frames = FrameBuffer::new();
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = [0u8; 4096];
        while got.len() < 7 {
            let read = std::io::Read::read(&mut server, &mut chunk).unwrap();
            assert!(read > 0, "stream closed before the batch arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Classed>>().unwrap() {
                assert_eq!(t.from, ProcessId::new(0));
                got.push(t.msg.0);
            }
        }
        assert_eq!(got, vec![1, 3, 5, 2, 4, 6, 8], "ordering lane must drain first");
        queue.close();
        flusher.join().unwrap();
    }

    /// A bulk frame big enough that a batch of them overflows any socket
    /// send buffer, forcing `write_vectored` to return short and the
    /// flusher to take the scratch-suffix `write_all` fallback.
    #[derive(Clone, Debug, PartialEq)]
    struct Big(u32);
    const BIG_LEN: usize = 4096;
    impl WireSize for Big {
        fn wire_size(&self) -> usize {
            4 + BIG_LEN
        }
    }
    impl Encode for Big {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
            buf.extend(std::iter::repeat_n((self.0 % 251) as u8, BIG_LEN));
        }
    }
    impl Decode for Big {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            let id = u32::decode(buf)?;
            let (body, rest) = buf.split_at(BIG_LEN);
            assert!(body.iter().all(|&b| b == (id % 251) as u8), "frame body corrupted");
            *buf = rest;
            Ok(Big(id))
        }
    }

    #[test]
    fn vectored_flush_survives_partial_writes_on_huge_batches() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        // ~2 MiB queued before the flusher starts: one batch, far past the
        // socket buffer, so the single write_vectored cannot take it all.
        const FRAMES: u32 = 512;
        let queue: Arc<PeerQueue<Big>> = Arc::new(PeerQueue::new());
        for v in 0..FRAMES {
            queue.enqueue(Big(v));
        }
        let fq = Arc::clone(&queue);
        let flusher = std::thread::spawn(move || flusher_loop(&fq, stream, ProcessId::new(2)));

        let mut frames = FrameBuffer::new();
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while got.len() < FRAMES as usize {
            let read = std::io::Read::read(&mut server, &mut chunk).unwrap();
            assert!(read > 0, "stream closed before the batch arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Big>>().unwrap() {
                assert_eq!(t.from, ProcessId::new(2));
                got.push(t.msg.0);
            }
        }
        // Every frame arrived intact (the Decode impl checks the body),
        // in FIFO order — whichever frame the short write split.
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>());
        queue.close();
        flusher.join().unwrap();
    }
}
