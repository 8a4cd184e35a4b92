//! The project-management relational schema (§5, adopted from Hamsaz).
//!
//! "The project management class has five methods, namely, addProject,
//! deleteProject, worksOn, addEmployee, and query. The methods
//! addProject, deleteProject, and worksOn belong to a synchronization
//! group and the worksOn method depends on addProject and addEmployee
//! due to the foreign-key constraint."
//!
//! State: a set of projects, a set of employees, and a `worksOn`
//! relation; the integrity invariant is referential: every `worksOn`
//! pair references an existing employee and project (deleting a project
//! cascades its assignments).
//!
//! Categories — this schema exercises **all three**:
//! * `add_employees` — reducible (set union summarization);
//! * `works_on` / `add_project` / `delete_project` — one conflicting
//!   synchronization group (`works_on` state-conflicts with
//!   `delete_project`, which state-conflicts with `add_project`);
//! * `works_on` additionally depends on `add_project` and
//!   `add_employees`.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

use crate::sets::{pick, remove_key, sorted_union, RankSet};

/// The schema state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProjectState {
    /// Registered projects.
    pub projects: RankSet,
    /// Registered employees.
    pub employees: RankSet,
    /// Assignment relation: (project, employee), keyed by project first
    /// so that `deleteProject` cascades over one range.
    pub works_on: BTreeSet<(u64, u64)>,
}

/// An update call on the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProjectUpdate {
    /// `addProject(p)`.
    AddProject(u64),
    /// `deleteProject(p)` — cascades assignments of `p`.
    DeleteProject(u64),
    /// `worksOn(employee, project)`.
    WorksOn(u64, u64),
    /// `addEmployees(es)` — batch insert (summarizable by union).
    AddEmployees(Vec<u64>),
}

hamband_core::calls! {
    ProjectUpdate {
        ADD_PROJECT = "add_project" => AddProject(project),
        DELETE_PROJECT = "delete_project" => DeleteProject(project),
        WORKS_ON = "works_on" => WorksOn(employee, project),
        ADD_EMPLOYEES = "add_employees" => AddEmployees(employees),
    }
}

/// A query call on the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectQuery {
    /// Number of projects.
    Projects,
    /// Number of assignments.
    Assignments,
}

/// The project-management schema.
#[derive(Debug, Clone)]
pub struct Project {
    id_space: u64,
}

impl Project {
    /// A schema whose sampler draws identifiers from `0..id_space`.
    pub fn new(id_space: u64) -> Self {
        assert!(id_space > 0);
        Project { id_space }
    }

    /// The coordination relations described in §5.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(4)
            .conflict(ADD_PROJECT.index(), DELETE_PROJECT.index())
            .conflict(DELETE_PROJECT.index(), WORKS_ON.index())
            .depends(WORKS_ON.index(), ADD_PROJECT.index())
            .depends(WORKS_ON.index(), ADD_EMPLOYEES.index())
            .summarization_group([ADD_EMPLOYEES.index()])
            .build()
    }
}

impl Default for Project {
    fn default() -> Self {
        Project::new(48)
    }
}

impl ObjectSpec for Project {
    type State = ProjectState;
    type Update = ProjectUpdate;
    type Query = ProjectQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "project-management"
    }

    fn initial(&self) -> ProjectState {
        ProjectState::default()
    }

    fn invariant(&self, s: &ProjectState) -> bool {
        s.works_on.iter().all(|&(p, e)| s.employees.contains(&e) && s.projects.contains(&p))
    }

    fn query(&self, state: &ProjectState, query: &ProjectQuery) -> u64 {
        match query {
            ProjectQuery::Projects => state.projects.len() as u64,
            ProjectQuery::Assignments => state.works_on.len() as u64,
        }
    }

    fn apply_mut(&self, state: &mut ProjectState, call: &ProjectUpdate) {
        match call {
            ProjectUpdate::AddProject(p) => {
                state.projects.insert(*p);
            }
            ProjectUpdate::DeleteProject(p) => {
                state.projects.remove(p);
                remove_key(&mut state.works_on, *p);
            }
            ProjectUpdate::WorksOn(e, p) => {
                state.works_on.insert((*p, *e));
            }
            ProjectUpdate::AddEmployees(es) => state.employees.insert_missing(es),
        }
    }

    fn summaries_monotone(&self) -> bool {
        true
    }

    /// Given `I(state)`, only a new assignment can dangle: `AddProject`
    /// and `AddEmployees` grow what assignments point at, and
    /// `DeleteProject` cascades.
    fn permissible(&self, state: &ProjectState, call: &ProjectUpdate) -> bool {
        match call {
            ProjectUpdate::WorksOn(e, p) => {
                state.employees.contains(e) && state.projects.contains(p)
            }
            _ => true,
        }
    }

    fn summarize(&self, first: &ProjectUpdate, second: &ProjectUpdate) -> Option<ProjectUpdate> {
        match (first, second) {
            (ProjectUpdate::AddEmployees(a), ProjectUpdate::AddEmployees(b)) => {
                Some(ProjectUpdate::AddEmployees(sorted_union(a, b)))
            }
            _ => None,
        }
    }
}

impl WorkloadSupport for Project {
    fn sample_state(&self, rng: &mut StdRng) -> ProjectState {
        let mut s = ProjectState::default();
        for _ in 0..rng.gen_range(0..8) {
            s.projects.insert(rng.gen_range(0..self.id_space));
        }
        for _ in 0..rng.gen_range(0..8) {
            s.employees.insert(rng.gen_range(0..self.id_space));
        }
        // Assignments drawn from registered pairs keep I(σ) true.
        let ps: Vec<u64> = s.projects.iter().copied().collect();
        let es: Vec<u64> = s.employees.iter().copied().collect();
        if !ps.is_empty() && !es.is_empty() {
            for _ in 0..rng.gen_range(0..6) {
                // Employee first, then project: the draw order is pinned.
                let employee = es[rng.gen_range(0..es.len())];
                s.works_on.insert((ps[rng.gen_range(0..ps.len())], employee));
            }
        }
        s
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> ProjectUpdate {
        let id = rng.gen_range(0..self.id_space);
        match method {
            ADD_PROJECT => ProjectUpdate::AddProject(id),
            DELETE_PROJECT => ProjectUpdate::DeleteProject(id),
            WORKS_ON => ProjectUpdate::WorksOn(rng.gen_range(0..self.id_space), id),
            ADD_EMPLOYEES => {
                let n = rng.gen_range(1..4);
                ProjectUpdate::AddEmployees(
                    (0..n).map(|_| rng.gen_range(0..self.id_space)).collect(),
                )
            }
            other => panic!("project schema has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> ProjectQuery {
        if rng.gen_bool(0.5) {
            ProjectQuery::Projects
        } else {
            ProjectQuery::Assignments
        }
    }

    fn gen_update(
        &self,
        state: &ProjectState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<ProjectUpdate> {
        match method {
            ADD_PROJECT => {
                // Fresh ids per node avoid add/delete ping-pong.
                Some(ProjectUpdate::AddProject(node as u64 * 1_000_000 + seq))
            }
            DELETE_PROJECT => Some(ProjectUpdate::DeleteProject(pick(&state.projects, rng)?)),
            WORKS_ON => {
                if state.projects.is_empty() {
                    return None;
                }
                // Employee first, then project: the draw order is pinned.
                let employee = pick(&state.employees, rng)?;
                Some(ProjectUpdate::WorksOn(employee, pick(&state.projects, rng)?))
            }
            ADD_EMPLOYEES => Some(ProjectUpdate::AddEmployees(vec![node as u64 * 1_000_000 + seq])),
            other => panic!("project schema has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::coord::MethodCategory;
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn cascade_preserves_integrity() {
        let pm = Project::default();
        let mut s = pm.initial();
        s = pm.apply(&s, &ProjectUpdate::AddProject(1));
        s = pm.apply(&s, &ProjectUpdate::AddEmployees(vec![10]));
        s = pm.apply(&s, &ProjectUpdate::WorksOn(10, 1));
        assert!(pm.invariant(&s));
        let s2 = pm.apply(&s, &ProjectUpdate::DeleteProject(1));
        assert!(pm.invariant(&s2));
        assert!(s2.works_on.is_empty());
    }

    /// `DeleteProject` as it was, a `retain` over the whole relation
    /// kept as (employee, project), on sampled states: the range
    /// removal leaves the same pairs.
    #[test]
    fn delete_project_cascades_as_retain_did() {
        use rand::SeedableRng;
        let pm = Project::new(6);
        let mut rng = StdRng::seed_from_u64(17);
        let as_employee_project = |s: &ProjectState| -> BTreeSet<(u64, u64)> {
            s.works_on.iter().map(|&(p, e)| (e, p)).collect()
        };
        let mut cascaded = 0;
        for _ in 0..300 {
            let s = pm.sample_state(&mut rng);
            let p = rng.gen_range(0..6);
            let mut retained = as_employee_project(&s);
            retained.retain(|&(_, proj)| proj != p);
            let after = pm.apply(&s, &ProjectUpdate::DeleteProject(p));
            assert_eq!(as_employee_project(&after), retained, "deleting {p} from {s:?}");
            assert!(!after.projects.contains(&p));
            cascaded += s.works_on.len() - after.works_on.len();
        }
        assert!(cascaded > 50, "only {cascaded} assignments cascaded");
    }

    #[test]
    fn dangling_works_on_violates_integrity() {
        let pm = Project::default();
        let s = pm.apply(&pm.initial(), &ProjectUpdate::WorksOn(10, 1));
        assert!(!pm.invariant(&s));
    }

    #[test]
    fn works_on_conflicts_with_delete_project() {
        let pm = Project::default();
        let r = BoundedRelations::new(&pm, 3, 200);
        let w = ProjectUpdate::WorksOn(10, 1);
        let d = ProjectUpdate::DeleteProject(1);
        assert!(r.s_conflict(&w, &d));
        assert!(r.conflict(&w, &d));
        let a = ProjectUpdate::AddProject(1);
        assert!(r.conflict(&a, &d));
    }

    #[test]
    fn works_on_depends_on_references() {
        let pm = Project::default();
        let r = BoundedRelations::new(&pm, 3, 300);
        let w = ProjectUpdate::WorksOn(10, 1);
        assert!(r.dependent(&w, &ProjectUpdate::AddProject(1)));
        assert!(r.dependent(&w, &ProjectUpdate::AddEmployees(vec![10])));
    }

    #[test]
    fn coord_spec_has_all_categories() {
        let pm = Project::default();
        let c = pm.coord_spec();
        assert!(matches!(c.category(ADD_EMPLOYEES), MethodCategory::Reducible { .. }));
        assert!(c.category(ADD_PROJECT).is_conflicting());
        assert!(c.category(DELETE_PROJECT).is_conflicting());
        assert!(c.category(WORKS_ON).is_conflicting());
        assert_eq!(c.sync_groups().len(), 1);
        assert_eq!(c.sync_groups()[0], vec![ADD_PROJECT, DELETE_PROJECT, WORKS_ON]);
    }

    #[test]
    fn employee_batches_summarize_by_union() {
        let pm = Project::default();
        assert_eq!(
            pm.summarize(
                &ProjectUpdate::AddEmployees(vec![3, 1]),
                &ProjectUpdate::AddEmployees(vec![1, 2])
            ),
            Some(ProjectUpdate::AddEmployees(vec![1, 2, 3]))
        );
        assert_eq!(
            pm.summarize(&ProjectUpdate::AddProject(1), &ProjectUpdate::AddProject(2)),
            None
        );
    }

    #[test]
    fn workload_respects_referential_integrity() {
        use rand::SeedableRng;
        let pm = Project::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pm.gen_update(&pm.initial(), 0, 0, WORKS_ON, &mut rng), None);
        let mut s = pm.initial();
        s = pm.apply(&s, &ProjectUpdate::AddProject(5));
        s = pm.apply(&s, &ProjectUpdate::AddEmployees(vec![9]));
        let w = pm.gen_update(&s, 0, 0, WORKS_ON, &mut rng).expect("refs exist");
        assert_eq!(w, ProjectUpdate::WorksOn(9, 5));
        assert!(pm.permissible(&s, &w));
    }

    /// `gen_update` as it was while it copied the project and employee
    /// sets into vectors to index them.
    fn collecting_gen_update(
        pm: &Project,
        state: &ProjectState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<ProjectUpdate> {
        match method {
            DELETE_PROJECT => {
                let ps: Vec<u64> = state.projects.iter().copied().collect();
                if ps.is_empty() {
                    return None;
                }
                Some(ProjectUpdate::DeleteProject(ps[rng.gen_range(0..ps.len())]))
            }
            WORKS_ON => {
                let ps: Vec<u64> = state.projects.iter().copied().collect();
                let es: Vec<u64> = state.employees.iter().copied().collect();
                if ps.is_empty() || es.is_empty() {
                    return None;
                }
                Some(ProjectUpdate::WorksOn(
                    es[rng.gen_range(0..es.len())],
                    ps[rng.gen_range(0..ps.len())],
                ))
            }
            _ => pm.gen_update(state, node, seq, method, rng),
        }
    }

    #[test]
    fn iterator_sampling_draws_what_collecting_drew() {
        let pm = Project::default();
        crate::gen_parity::assert_same_draws(&pm, |state, node, seq, method, rng| {
            collecting_gen_update(&pm, state, node, seq, method, rng)
        });
    }
}
