//! Experience replay (ring buffer).

use rand::seq::index::sample as index_sample;
use rand::Rng;

/// One observed `(s, a, r, s')` transition.
#[derive(Clone, Debug)]
pub struct Transition<S, A> {
    pub state: S,
    pub action: A,
    pub reward: f64,
    pub next_state: S,
}

/// Fixed-capacity ring buffer with uniform sampling (the paper uses
/// capacity 10 000, minibatch 32 — Table 1).
#[derive(Clone, Debug)]
pub struct ReplayBuffer<S, A> {
    capacity: usize,
    items: Vec<Transition<S, A>>,
    head: usize,
}

impl<S: Clone, A: Clone> ReplayBuffer<S, A> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            items: Vec::with_capacity(capacity.min(4096)),
            head: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn push(&mut self, t: Transition<S, A>) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else if let Some(slot) = self.items.get_mut(self.head) {
            *slot = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Configured capacity (the ring wraps once `len` reaches it).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ring-head position — the slot the next overwrite lands in. Part of
    /// the buffer's resumable state: restoring items without the head would
    /// shift which transitions future pushes evict.
    pub fn head(&self) -> usize {
        self.head
    }

    /// Stored transitions in slot order (not insertion order once wrapped).
    pub fn items(&self) -> &[Transition<S, A>] {
        &self.items
    }

    /// Rebuild a buffer from checkpointed parts, exactly as captured by
    /// [`ReplayBuffer::capacity`] / [`ReplayBuffer::items`] /
    /// [`ReplayBuffer::head`].
    pub fn from_parts(capacity: usize, items: Vec<Transition<S, A>>, head: usize) -> Self {
        assert!(capacity > 0);
        assert!(items.len() <= capacity);
        assert!(head < capacity.max(1));
        Self {
            capacity,
            items,
            head,
        }
    }

    /// Uniform sample without replacement (or everything, if fewer stored).
    #[expect(
        clippy::indexing_slicing,
        reason = "indices are drawn below the buffer length"
    )]
    pub fn sample<R: Rng>(&self, rng: &mut R, batch: usize) -> Vec<&Transition<S, A>> {
        if self.items.len() <= batch {
            return self.items.iter().collect();
        }
        index_sample(rng, self.items.len(), batch)
            .into_iter()
            .map(|i| &self.items[i])
            .collect()
    }

    /// Slot indices of a uniform sample without replacement — the arena
    /// form of [`Self::sample`], drawn into the caller's index buffer so a
    /// train step allocates nothing. Behind the same full-buffer
    /// short-circuit it runs Robert Floyd's algorithm exactly as
    /// `rand::seq::index::sample` does: the same draws in the same order,
    /// so the same indices in the same order.
    pub fn sample_indices<R: Rng>(&self, rng: &mut R, batch: usize, out: &mut Vec<usize>) {
        out.clear();
        let len = self.items.len();
        if len <= batch {
            out.extend(0..len);
            return;
        }
        for j in len - batch..len {
            let t = rng.gen_range(0..=j);
            out.push(if out.contains(&t) { j } else { t });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(v: i32) -> Transition<i32, i32> {
        Transition {
            state: v,
            action: v,
            reward: v as f64,
            next_state: v + 1,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i));
        }
        assert_eq!(b.len(), 3);
        let states: Vec<i32> = b.items.iter().map(|x| x.state).collect();
        // 0 and 1 overwritten by 3 and 4.
        assert!(states.contains(&2) && states.contains(&3) && states.contains(&4));
    }

    #[test]
    fn sample_sizes() {
        let mut b = ReplayBuffer::new(100);
        for i in 0..10 {
            b.push(t(i));
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(b.sample(&mut rng, 4).len(), 4);
        assert_eq!(b.sample(&mut rng, 50).len(), 10);
        // No duplicates when sampling without replacement.
        let s = b.sample(&mut rng, 8);
        let mut seen: Vec<i32> = s.iter().map(|t| t.state).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn sample_indices_draws_what_rand_index_sample_draws() {
        let mut out = Vec::new();
        for len in [1usize, 2, 5, 33, 64, 100, 1000] {
            let mut b = ReplayBuffer::new(len);
            for i in 0..len {
                b.push(t(i as i32));
            }
            for batch in [0, 1, 7, 32, len - 1, len, len + 3] {
                for seed in 0..40u64 {
                    let mut ours = StdRng::seed_from_u64(seed);
                    let mut theirs = ours.clone();
                    b.sample_indices(&mut ours, batch, &mut out);
                    let want: Vec<usize> = if len <= batch {
                        (0..len).collect()
                    } else {
                        index_sample(&mut theirs, len, batch).into_vec()
                    };
                    assert_eq!(out, want, "len {len} batch {batch} seed {seed}");
                    // Both generators end in the same state.
                    assert_eq!(ours, theirs, "len {len} batch {batch} seed {seed}");
                }
            }
        }
    }
}
