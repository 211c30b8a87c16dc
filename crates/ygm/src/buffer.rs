//! Per-destination send buffers.
//!
//! YGM's central scalability trick (§4.1.1 of the paper) is that it never
//! ships an application record on its own: records destined for the same
//! rank are appended to a growing byte buffer and the buffer is handed to
//! the transport only when it crosses a size threshold or the application
//! flushes (e.g. on entering a barrier). One flush == one MPI message, so
//! the per-message overhead of headers and handshakes is amortized over
//! hundreds of records.
//!
//! [`SendBuffer`] is that accumulation buffer. It stores the concatenated
//! `(handler_id, payload)` records plus the record count, and reports when
//! the flush policy says it should be shipped.

use crate::wire::{put_varint, Wire};

/// Recycles drained send-buffer allocations.
///
/// Every buffer flush used to surrender its `Vec<u8>` to the receiving
/// rank, so each subsequent send re-grew a fresh allocation from zero —
/// O(envelopes) heap churn per phase. The pool closes the loop: a rank
/// returns the payload vectors of envelopes it has finished dispatching,
/// and its own `SendBuffer`s restart from those already-grown vectors.
/// In steady state (a rank receives about as many envelopes as it
/// sends), sends allocate nothing.
///
/// Capacity is bounded on both axes: at most `max_buffers` vectors are
/// retained, and a vector whose capacity exceeds `max_buffer_bytes` is
/// dropped rather than pooled (a single oversized envelope — e.g. one
/// hub vertex's multi-MB adjacency projection — must not stay resident
/// for the pool's lifetime). Pooled memory is therefore capped at
/// `max_buffers × max_buffer_bytes`.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    max_buffer_bytes: usize,
    reuses: u64,
}

impl BufferPool {
    /// A pool retaining at most `max_buffers` drained vectors of up to
    /// `max_buffer_bytes` capacity each.
    pub fn new(max_buffers: usize, max_buffer_bytes: usize) -> Self {
        BufferPool {
            free: Vec::new(),
            max_buffers,
            max_buffer_bytes,
            reuses: 0,
        }
    }

    /// Takes a recycled vector (empty, capacity intact), or a fresh one.
    #[inline]
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(v) => {
                self.reuses += 1;
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a vector to the pool; dropped if the pool is full or the
    /// vector is empty or oversized.
    #[inline]
    pub fn put(&mut self, mut v: Vec<u8>) {
        if self.free.len() < self.max_buffers
            && v.capacity() > 0
            && v.capacity() <= self.max_buffer_bytes
        {
            v.clear();
            self.free.push(v);
        }
    }

    /// Vectors currently pooled.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Times [`BufferPool::take`] was served from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// Accumulates serialized records bound for a single destination rank.
#[derive(Debug, Default)]
pub struct SendBuffer {
    data: Vec<u8>,
    records: u64,
}

impl SendBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SendBuffer::default()
    }

    /// Appends one `(handler_id, payload)` record.
    ///
    /// Returns the number of bytes the record occupies on the wire.
    #[inline]
    pub fn push_record<M: Wire>(&mut self, handler_id: u32, msg: &M) -> usize {
        self.push_record_with(handler_id, |buf| msg.encode(buf))
    }

    /// Appends one record whose payload is written directly into the
    /// buffer by `write` — the encode-once path: no intermediate owned
    /// message, no scratch allocation.
    ///
    /// Returns the number of bytes the record occupies on the wire.
    #[inline]
    pub fn push_record_with(&mut self, handler_id: u32, write: impl FnOnce(&mut Vec<u8>)) -> usize {
        let before = self.data.len();
        put_varint(&mut self.data, u64::from(handler_id));
        write(&mut self.data);
        self.records += 1;
        self.data.len() - before
    }

    /// Appends one pre-encoded record (handler id already included) by
    /// memcpy — the fan-out path of `send_to_many`, where one encoded
    /// record is appended to several destination buffers.
    ///
    /// Returns the number of bytes appended (always `bytes.len()`).
    #[inline]
    pub fn push_raw(&mut self, bytes: &[u8]) -> usize {
        self.data.extend_from_slice(bytes);
        self.records += 1;
        bytes.len()
    }

    /// Bytes currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Records currently buffered.
    #[inline]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True when the buffer has reached the flush threshold.
    #[inline]
    pub fn should_flush(&self, threshold: usize) -> bool {
        self.data.len() >= threshold
    }

    /// Removes and returns the buffered payload and record count, leaving
    /// the buffer empty (its allocation is surrendered with the payload —
    /// the receiving rank frees it, mirroring an MPI send buffer handoff).
    #[inline]
    pub fn drain(&mut self) -> (Vec<u8>, u64) {
        let records = self.records;
        self.records = 0;
        (std::mem::take(&mut self.data), records)
    }

    /// Like [`SendBuffer::drain`], but restarts the buffer from a
    /// recycled allocation out of `pool` instead of an empty `Vec`, so
    /// subsequent records append into already-grown storage.
    #[inline]
    pub fn drain_pooled(&mut self, pool: &mut BufferPool) -> (Vec<u8>, u64) {
        let records = self.records;
        self.records = 0;
        (std::mem::replace(&mut self.data, pool.take()), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireError, WireReader};

    #[test]
    fn push_and_drain() {
        let mut b = SendBuffer::new();
        assert!(b.is_empty());
        let n1 = b.push_record(3, &(7u64, 9u64));
        let n2 = b.push_record(4, &"hi".to_string());
        assert_eq!(b.records(), 2);
        assert_eq!(b.len(), n1 + n2);

        let (data, records) = b.drain();
        assert_eq!(records, 2);
        assert_eq!(data.len(), n1 + n2);
        assert!(b.is_empty());
        assert_eq!(b.records(), 0);

        // The drained bytes decode back into the records we pushed.
        let mut r = WireReader::new(&data);
        assert_eq!(r.take_varint().unwrap(), 3);
        let pair = <(u64, u64)>::decode(&mut r).unwrap();
        assert_eq!(pair, (7, 9));
        assert_eq!(r.take_varint().unwrap(), 4);
        assert_eq!(String::decode(&mut r).unwrap(), "hi");
        assert!(r.is_empty());
    }

    #[test]
    fn flush_threshold() {
        let mut b = SendBuffer::new();
        assert!(!b.should_flush(16));
        // Zero threshold flushes on any content.
        b.push_record(0, &1u8);
        assert!(b.should_flush(0));
        assert!(b.should_flush(1));
        assert!(!b.should_flush(1024));
        while b.len() < 1024 {
            b.push_record(0, &0xffff_ffff_ffffu64);
        }
        assert!(b.should_flush(1024));
    }

    #[test]
    fn record_overhead_is_small() {
        // A (u32 vertex, u32 vertex) record with a one-byte handler id must
        // cost single-digit bytes — this is the communication-volume story.
        let mut b = SendBuffer::new();
        let n = b.push_record(2, &(17u32, 103u32));
        assert!(n <= 3 + 1, "record cost {n} bytes");
    }

    #[test]
    fn push_record_with_matches_push_record() {
        let mut a = SendBuffer::new();
        let mut b = SendBuffer::new();
        let msg = (17u64, "meta".to_string());
        let na = a.push_record(5, &msg);
        let nb = b.push_record_with(5, |buf| {
            use crate::wire::WireEncode;
            (17u64, &msg.1).encode_wire(buf);
        });
        assert_eq!(na, nb);
        assert_eq!(a.drain().0, b.drain().0);
    }

    #[test]
    fn push_raw_replays_an_encoded_record() {
        let mut origin = SendBuffer::new();
        origin.push_record(9, &(1u64, 2u64));
        let (bytes, _) = origin.drain();

        let mut fanout = SendBuffer::new();
        assert_eq!(fanout.push_raw(&bytes), bytes.len());
        assert_eq!(fanout.push_raw(&bytes), bytes.len());
        assert_eq!(fanout.records(), 2);
        let (data, records) = fanout.drain();
        assert_eq!(records, 2);
        let mut r = WireReader::new(&data);
        for _ in 0..2 {
            assert_eq!(r.take_varint().unwrap(), 9);
            assert_eq!(<(u64, u64)>::decode(&mut r).unwrap(), (1, 2));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = BufferPool::new(2, 1 << 20);
        let mut b = SendBuffer::new();
        for i in 0..100u64 {
            b.push_record(0, &i);
        }
        let (data, _) = b.drain_pooled(&mut pool);
        let grown = data.capacity();
        assert!(grown > 0);
        pool.put(data);
        assert_eq!(pool.available(), 1);

        // Next drain restarts the send buffer from the recycled vector.
        b.push_record(0, &1u64);
        let before_reuses = pool.reuses();
        let _ = b.drain_pooled(&mut pool);
        assert_eq!(pool.reuses(), before_reuses + 1);
        b.push_record(0, &2u64);
        // The recycled capacity is now backing the live buffer: pushing
        // did not need to grow from zero.
        let (data2, _) = b.drain();
        assert!(data2.capacity() >= grown.min(64));
    }

    #[test]
    fn pool_capacity_is_bounded() {
        let mut pool = BufferPool::new(1, 1 << 20);
        pool.put(Vec::with_capacity(10));
        pool.put(Vec::with_capacity(10));
        assert_eq!(pool.available(), 1, "over-count vectors are dropped");
        // Zero-capacity vectors are not worth pooling.
        let mut pool = BufferPool::new(4, 1 << 20);
        pool.put(Vec::new());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn pool_drops_oversized_vectors() {
        // One giant envelope (a hub vertex's adjacency projection) must
        // not stay resident in the pool: memory would then scale with
        // the largest envelope ever received instead of the cap.
        let mut pool = BufferPool::new(4, 1024);
        pool.put(Vec::with_capacity(64 * 1024));
        assert_eq!(pool.available(), 0, "oversized vector dropped");
        pool.put(Vec::with_capacity(512));
        assert_eq!(pool.available(), 1, "regular vector pooled");
    }

    #[test]
    fn decode_error_type_is_exported() {
        // Compile-time check that wire errors surface through the buffer's
        // public decode path.
        fn assert_err_ty(_e: WireError) {}
        let _ = assert_err_ty;
    }
}
