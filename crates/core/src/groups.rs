//! Transfer groups in one flat, reusable buffer.
//!
//! Prefetchers plan *prefetch groups* and evictors select *write-back
//! groups*; each group moves as one PCI-e transfer. Returning them as
//! `Vec<Vec<PageId>>` cost one allocation per group on every far-fault,
//! so the policies instead append into a [`PageGroups`] the driver owns
//! and clears between calls: once its capacity has grown to the largest
//! plan seen, fault service allocates nothing.

use uvm_types::PageId;

/// An ordered list of page groups stored as one flat page list plus the
/// end offset of every closed group.
///
/// Pages are appended to the *open* group, which [`end_group`] closes.
/// Empty groups never exist: closing an empty open group is a no-op.
/// An open group left unclosed still counts as the last group.
///
/// [`end_group`]: Self::end_group
///
/// # Examples
///
/// ```
/// use uvm_core::PageGroups;
/// use uvm_types::PageId;
///
/// let mut groups = PageGroups::new();
/// groups.push_group([PageId::new(4), PageId::new(5)]);
/// groups.end_group(); // nothing open: no empty group
/// groups.push_group([PageId::new(9)]);
/// assert_eq!(groups.iter().count(), 2);
/// assert_eq!(groups.pages().len(), 3);
/// // Trimming to a page budget keeps the leading pages of each group.
/// groups.truncate(1);
/// let kept: Vec<&[PageId]> = groups.iter().collect();
/// assert_eq!(kept, vec![&[PageId::new(4)][..]]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageGroups {
    pages: Vec<PageId>,
    /// Exclusive end offset into `pages` of every closed group,
    /// strictly increasing.
    ends: Vec<usize>,
}

impl PageGroups {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every group, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.ends.clear();
    }

    /// Appends `page` to the open group.
    pub fn push(&mut self, page: PageId) {
        self.pages.push(page);
    }

    /// Appends `pages` to the open group.
    pub fn extend(&mut self, pages: impl IntoIterator<Item = PageId>) {
        self.pages.extend(pages);
    }

    /// Closes the open group; a no-op if it holds no page.
    pub fn end_group(&mut self) {
        if self.pages.len() > self.closed() {
            self.ends.push(self.pages.len());
        }
    }

    /// Appends `pages` and closes the group (dropped if empty).
    pub fn push_group(&mut self, pages: impl IntoIterator<Item = PageId>) {
        self.extend(pages);
        self.end_group();
    }

    /// `true` if no group holds a page.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Every page, group by group.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The groups in order.
    pub fn iter(&self) -> impl Iterator<Item = &[PageId]> + '_ {
        let open = (self.pages.len() > self.closed()).then_some(self.pages.len());
        let mut start = 0;
        self.ends.iter().copied().chain(open).map(move |end| {
            let group = &self.pages[start..end];
            start = end;
            group
        })
    }

    /// Keeps only the first `n` pages: the group holding the cut keeps
    /// its leading pages (and is closed) and every later group is
    /// dropped.
    pub fn truncate(&mut self, n: usize) {
        self.pages.truncate(n);
        let kept = self.ends.partition_point(|&end| end <= self.pages.len());
        self.ends.truncate(kept);
        self.end_group();
    }

    /// End offset of the last closed group.
    fn closed(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(range: std::ops::Range<u64>) -> impl Iterator<Item = PageId> {
        range.map(PageId::new)
    }

    fn collect(g: &PageGroups) -> Vec<Vec<u64>> {
        g.iter()
            .map(|grp| grp.iter().map(|p| p.index()).collect())
            .collect()
    }

    #[test]
    fn empty_groups_are_never_recorded() {
        let mut g = PageGroups::new();
        g.end_group();
        g.push_group(pages(0..0));
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn open_group_counts_as_the_last_group() {
        let mut g = PageGroups::new();
        g.push_group(pages(0..2));
        g.extend(pages(5..7));
        assert_eq!(collect(&g), vec![vec![0, 1], vec![5, 6]]);
        g.end_group();
        assert_eq!(collect(&g), vec![vec![0, 1], vec![5, 6]]);
    }

    /// Flat truncation equals the per-group `truncate` + `retain` it
    /// replaces, at every budget.
    #[test]
    fn truncate_matches_per_group_trimming() {
        let shape: [u64; 4] = [3, 1, 4, 2];
        let total: u64 = shape.iter().sum();
        for room in 0..=total as usize + 1 {
            let mut g = PageGroups::new();
            let mut nested: Vec<Vec<u64>> = Vec::new();
            let mut next = 0;
            for &len in &shape {
                g.push_group(pages(next..next + len));
                nested.push((next..next + len).collect());
                next += len + 10;
            }
            let mut left = room;
            for group in &mut nested {
                let keep = left.min(group.len());
                group.truncate(keep);
                left -= keep;
            }
            nested.retain(|grp| !grp.is_empty());
            g.truncate(room);
            assert_eq!(collect(&g), nested, "room {room}");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut g = PageGroups::new();
        g.push_group(pages(0..64));
        let cap = g.pages.capacity();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.pages.capacity(), cap);
    }
}
