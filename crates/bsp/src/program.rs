//! The two traits a vertex program's types implement: [`Message`] (what
//! vertices send each other) and [`Aggregator`] (the per-superstep global
//! value, the paper's aggregation vertex).

/// Messages exchanged between vertices.
///
/// `byte_size` feeds the communication-cost statistics; override it for
/// messages with heap payloads (intermediate result tables, value lists).
pub trait Message: Send + Sync + Clone {
    /// Payload size in bytes, for communication accounting.
    fn byte_size(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

impl Message for () {}
impl Message for u8 {}
impl Message for u16 {}
impl Message for u32 {}
impl Message for u64 {}
impl Message for i32 {}
impl Message for i64 {}
impl Message for f64 {}
impl<A: Message, B: Message> Message for (A, B) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size()
    }
}
impl<T: Message> Message for Vec<T> {
    fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(Message::byte_size).sum::<usize>()
    }
}

/// A mergeable per-superstep global value (Pregel aggregator).
pub trait Aggregator: Default + Send + Sync {
    /// Fold another worker's partial aggregate into this one.
    fn merge(&mut self, other: Self);
}

impl Aggregator for () {
    fn merge(&mut self, _: Self) {}
}

impl Aggregator for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

impl<T: Send + Sync> Aggregator for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}
