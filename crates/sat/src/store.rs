//! Slot-based clause storage with stable references.

use japrove_logic::Lit;

/// Reference to a clause inside a [`ClauseStore`].
///
/// References stay valid until the clause is removed; slots of removed
/// clauses are recycled by later additions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ClauseData {
    pub lits: Vec<Lit>,
    pub learnt: bool,
    pub lbd: u32,
    pub activity: f32,
}

/// Owning container for problem and learnt clauses.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClauseStore {
    slots: Vec<Option<ClauseData>>,
    free: Vec<u32>,
    num_learnt: usize,
    num_problem: usize,
}

impl ClauseStore {
    pub fn add(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "store only holds non-unit clauses");
        let data = ClauseData {
            lits,
            learnt,
            lbd,
            activity: 0.0,
        };
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_problem += 1;
        }
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(data);
            ClauseRef(slot)
        } else {
            self.slots.push(Some(data));
            ClauseRef((self.slots.len() - 1) as u32)
        }
    }

    pub fn remove(&mut self, cref: ClauseRef) {
        let data = self.slots[cref.index()]
            .take()
            .expect("removing a live clause");
        if data.learnt {
            self.num_learnt -= 1;
        } else {
            self.num_problem -= 1;
        }
        self.free.push(cref.index() as u32);
    }

    /// `true` while `cref` names a stored clause (a removed clause's
    /// slot stays dead until a later [`ClauseStore::add`] recycles it).
    #[inline]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        self.slots[cref.index()].is_some()
    }

    #[inline]
    pub fn get(&self, cref: ClauseRef) -> &ClauseData {
        self.slots[cref.index()].as_ref().expect("live clause")
    }

    #[inline]
    pub fn get_mut(&mut self, cref: ClauseRef) -> &mut ClauseData {
        self.slots[cref.index()].as_mut().expect("live clause")
    }

    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    pub fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Iterates over live clause references.
    pub fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ClauseRef(i as u32)))
    }

    /// Live learnt clause references.
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Some(d) if d.learnt => Some(ClauseRef(i as u32)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_logic::Var;

    fn lits(n: u32) -> Vec<Lit> {
        (0..n).map(|i| Var::new(i).pos()).collect()
    }

    #[test]
    fn add_get_remove_cycle() {
        let mut s = ClauseStore::default();
        let a = s.add(lits(2), false, 0);
        let b = s.add(lits(3), true, 2);
        assert_eq!(s.get(a).lits.len(), 2);
        assert_eq!(s.get(b).lbd, 2);
        assert_eq!(s.num_problem(), 1);
        assert_eq!(s.num_learnt(), 1);
        s.remove(a);
        assert_eq!(s.num_problem(), 0);
        // Slot is recycled.
        let c = s.add(lits(4), false, 0);
        assert_eq!(c, a);
        assert_eq!(s.get(c).lits.len(), 4);
    }

    #[test]
    fn ref_iteration_skips_freed() {
        let mut s = ClauseStore::default();
        let a = s.add(lits(2), false, 0);
        let b = s.add(lits(2), true, 1);
        s.remove(a);
        let live: Vec<ClauseRef> = s.refs().collect();
        assert_eq!(live, vec![b]);
        assert_eq!(s.learnt_refs().count(), 1);
    }
}
