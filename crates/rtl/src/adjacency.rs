//! Neighbour lists of an undirected multigraph in compressed sparse row
//! form: the placement anneal and the encoding search price a move from
//! the connections of the one or two vertices it changes, so each needs
//! every vertex's neighbours as one contiguous slice.

/// Every vertex's neighbours, one entry per edge end. A pair given
/// twice appears twice; a self-loop is left out, since moving its
/// vertex never changes its length or cost.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// `ends[start[v]..start[v + 1]]` are the neighbours of `v`.
    start: Vec<usize>,
    ends: Vec<usize>,
}

impl Adjacency {
    /// The neighbour lists of vertices `0..vertices` joined by `pairs`.
    pub(crate) fn new(
        vertices: usize,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> Adjacency {
        let edges = pairs.filter(|(a, b)| a != b);
        let mut start = vec![0; vertices + 1];
        for (a, b) in edges.clone() {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for v in 0..vertices {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut ends = vec![0; start[vertices]];
        for (a, b) in edges {
            ends[fill[a]] = b;
            fill[a] += 1;
            ends[fill[b]] = a;
            fill[b] += 1;
        }
        Adjacency { start, ends }
    }

    /// The neighbours of `v`.
    pub(crate) fn of(&self, v: usize) -> &[usize] {
        &self.ends[self.start[v]..self.start[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_each_edge_end_once_and_drops_self_loops() {
        let adj = Adjacency::new(4, [(0, 1), (1, 2), (2, 2), (0, 1), (3, 0)].into_iter());
        assert_eq!(adj.of(0), &[1, 1, 3]);
        assert_eq!(adj.of(1), &[0, 2, 0]);
        assert_eq!(adj.of(2), &[1]);
        assert_eq!(adj.of(3), &[0]);
    }
}
