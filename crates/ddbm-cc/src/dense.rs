//! The two containers every CC manager keeps its state in: per-page state
//! in a dense [`PageTable`], and per-transaction access lists in
//! [`TxnLists`].

use ddbm_config::{FileId, PageId, TxnId};
use denet::FxHashMap;
use std::ops::{Index, IndexMut};

/// Per-page state for the pages one node stores, indexed `[file][page]`.
///
/// A file's row grows to cover a page the first time the page is touched,
/// and entries are never removed, so each entry keeps its buffers'
/// capacity for the rest of the run. Untouched pages below a touched one
/// hold `T::default()`.
#[derive(Debug, Default)]
pub(crate) struct PageTable<T> {
    rows: Vec<Vec<T>>,
}

impl<T: Default> PageTable<T> {
    /// `page`'s entry, growing its file's row on first touch.
    pub(crate) fn entry(&mut self, page: PageId) -> &mut T {
        let file = page.file.0;
        if file >= self.rows.len() {
            self.rows.resize_with(file + 1, Vec::new);
        }
        let row = &mut self.rows[file];
        let i = page.page as usize;
        if i >= row.len() {
            row.resize_with(i + 1, T::default);
        }
        &mut row[i]
    }

    /// `page`'s entry, or `None` if its row never reached it.
    pub(crate) fn get(&self, page: PageId) -> Option<&T> {
        self.rows.get(page.file.0)?.get(page.page as usize)
    }

    /// Every entry with its page, in ascending page order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &T)> {
        self.rows.iter().enumerate().flat_map(|(file, row)| {
            row.iter().enumerate().map(move |(page, entry)| {
                let page = PageId {
                    file: FileId(file),
                    page: page as u64,
                };
                (page, entry)
            })
        })
    }
}

/// Panics unless `page` was touched through [`PageTable::entry`].
impl<T> Index<PageId> for PageTable<T> {
    type Output = T;

    fn index(&self, page: PageId) -> &T {
        &self.rows[page.file.0][page.page as usize]
    }
}

impl<T> IndexMut<PageId> for PageTable<T> {
    fn index_mut(&mut self, page: PageId) -> &mut T {
        &mut self.rows[page.file.0][page.page as usize]
    }
}

/// A list per live transaction. A transaction's list disappears when it is
/// drained or emptied, and its buffer goes back to a pool for the next
/// transaction: every commit and abort would otherwise pay an
/// allocate/free pair.
#[derive(Debug)]
pub(crate) struct TxnLists<T> {
    lists: FxHashMap<TxnId, Vec<T>>,
    pool: Vec<Vec<T>>,
    /// Capacity a list is grown to when a transaction first uses it (the
    /// most accesses one transaction makes at this node): recycled buffers
    /// then never creep up by amortized doubling in the steady state.
    capacity: usize,
}

impl<T> Default for TxnLists<T> {
    fn default() -> Self {
        TxnLists {
            lists: FxHashMap::default(),
            pool: Vec::new(),
            capacity: 0,
        }
    }
}

impl<T> TxnLists<T> {
    /// Grow every list to at least `capacity` on first use.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Append `item` to `txn`'s list.
    pub(crate) fn push(&mut self, txn: TxnId, item: T) {
        let (pool, capacity) = (&mut self.pool, self.capacity);
        self.lists
            .entry(txn)
            .or_insert_with(|| {
                let mut list = pool.pop().unwrap_or_default();
                list.reserve(capacity);
                list
            })
            .push(item);
    }

    /// `txn`'s list, empty if it has none.
    pub(crate) fn get(&self, txn: TxnId) -> &[T] {
        self.lists.get(&txn).map_or(&[], Vec::as_slice)
    }

    /// True if `txn` has a (non-empty) list.
    pub(crate) fn contains(&self, txn: TxnId) -> bool {
        self.lists.contains_key(&txn)
    }

    /// Number of transactions with a list.
    pub(crate) fn len(&self) -> usize {
        self.lists.len()
    }

    /// Remove `txn`'s list, handing each item to `f` in order.
    pub(crate) fn drain(&mut self, txn: TxnId, f: impl FnMut(T)) {
        if let Some(mut list) = self.lists.remove(&txn) {
            list.drain(..).for_each(f);
            self.pool.push(list);
        }
    }

    /// Keep the items of `txn`'s list that satisfy `keep`, removing the
    /// list if it empties.
    pub(crate) fn retain(&mut self, txn: TxnId, keep: impl FnMut(&T) -> bool) {
        let Some(list) = self.lists.get_mut(&txn) else {
            return;
        };
        list.retain(keep);
        if list.is_empty() {
            if let Some(list) = self.lists.remove(&txn) {
                self.pool.push(list);
            }
        }
    }
}
