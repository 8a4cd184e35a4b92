//! The courseware relational schema (§5, adopted from Hamsaz).
//!
//! "The Courseware class has five methods, namely, addCourse,
//! deleteCourse, enroll, registerStudent, and query. Conflict analysis
//! shows that there is one synchronization group that includes
//! addCourse, deleteCourse and enroll. The enroll method depends on
//! both addCourse and registerStudent."
//!
//! State: courses, students, and an enrollment relation with the
//! referential-integrity invariant (deleting a course cascades its
//! enrollments). `register_students` takes a batch and summarizes by
//! union, making it **reducible** — this schema exercises all three
//! method categories and drives the failure experiment of Fig. 13.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};

use crate::sets::{insert_missing, pick, sorted_union};

/// The schema state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoursewareState {
    /// Offered courses.
    pub courses: BTreeSet<u64>,
    /// Registered students.
    pub students: BTreeSet<u64>,
    /// Enrollment relation: (student, course).
    pub enrollment: BTreeSet<(u64, u64)>,
}

/// An update call on the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CoursewareUpdate {
    /// `addCourse(c)`.
    AddCourse(u64),
    /// `deleteCourse(c)` — cascades enrollments of `c`.
    DeleteCourse(u64),
    /// `enroll(student, course)`.
    Enroll(u64, u64),
    /// `registerStudents(ss)` — batch registration (summarizable).
    RegisterStudents(Vec<u64>),
}

hamband_core::calls! {
    CoursewareUpdate {
        ADD_COURSE = "add_course" => AddCourse(course),
        DELETE_COURSE = "delete_course" => DeleteCourse(course),
        ENROLL = "enroll" => Enroll(student, course),
        REGISTER_STUDENTS = "register_students" => RegisterStudents(students),
    }
}

/// A query call on the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoursewareQuery {
    /// Number of courses.
    Courses,
    /// Number of enrollments.
    Enrollments,
}

/// The courseware schema.
#[derive(Debug, Clone)]
pub struct Courseware {
    id_space: u64,
}

impl Courseware {
    /// A schema whose sampler draws identifiers from `0..id_space`.
    pub fn new(id_space: u64) -> Self {
        assert!(id_space > 0);
        Courseware { id_space }
    }

    /// The coordination relations described in §5.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(4)
            .conflict(ADD_COURSE.index(), DELETE_COURSE.index())
            .conflict(DELETE_COURSE.index(), ENROLL.index())
            .depends(ENROLL.index(), ADD_COURSE.index())
            .depends(ENROLL.index(), REGISTER_STUDENTS.index())
            .summarization_group([REGISTER_STUDENTS.index()])
            .build()
    }
}

impl Default for Courseware {
    fn default() -> Self {
        Courseware::new(48)
    }
}

impl ObjectSpec for Courseware {
    type State = CoursewareState;
    type Update = CoursewareUpdate;
    type Query = CoursewareQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "courseware"
    }

    fn initial(&self) -> CoursewareState {
        CoursewareState::default()
    }

    fn invariant(&self, s: &CoursewareState) -> bool {
        s.enrollment
            .iter()
            .all(|&(st, c)| s.students.contains(&st) && s.courses.contains(&c))
    }

    fn query(&self, state: &CoursewareState, query: &CoursewareQuery) -> u64 {
        match query {
            CoursewareQuery::Courses => state.courses.len() as u64,
            CoursewareQuery::Enrollments => state.enrollment.len() as u64,
        }
    }

    fn apply_mut(&self, state: &mut CoursewareState, call: &CoursewareUpdate) {
        match call {
            CoursewareUpdate::AddCourse(c) => {
                state.courses.insert(*c);
            }
            CoursewareUpdate::DeleteCourse(c) => {
                state.courses.remove(c);
                state.enrollment.retain(|&(_, course)| course != *c);
            }
            CoursewareUpdate::Enroll(st, c) => {
                state.enrollment.insert((*st, *c));
            }
            CoursewareUpdate::RegisterStudents(ss) => insert_missing(&mut state.students, ss),
        }
    }

    fn summaries_monotone(&self) -> bool {
        true
    }

    /// Given `I(state)`, only a new enrollment can dangle: `AddCourse`
    /// and `RegisterStudents` grow what enrollments point at, and
    /// `DeleteCourse` cascades.
    fn permissible(&self, state: &CoursewareState, call: &CoursewareUpdate) -> bool {
        match call {
            CoursewareUpdate::Enroll(st, c) => {
                state.students.contains(st) && state.courses.contains(c)
            }
            _ => true,
        }
    }

    fn summarize(
        &self,
        first: &CoursewareUpdate,
        second: &CoursewareUpdate,
    ) -> Option<CoursewareUpdate> {
        match (first, second) {
            (CoursewareUpdate::RegisterStudents(a), CoursewareUpdate::RegisterStudents(b)) => {
                Some(CoursewareUpdate::RegisterStudents(sorted_union(a, b)))
            }
            _ => None,
        }
    }
}

impl WorkloadSupport for Courseware {
    fn sample_state(&self, rng: &mut StdRng) -> CoursewareState {
        let mut s = CoursewareState::default();
        for _ in 0..rng.gen_range(0..8) {
            s.courses.insert(rng.gen_range(0..self.id_space));
        }
        for _ in 0..rng.gen_range(0..8) {
            s.students.insert(rng.gen_range(0..self.id_space));
        }
        let cs: Vec<u64> = s.courses.iter().copied().collect();
        let ss: Vec<u64> = s.students.iter().copied().collect();
        if !cs.is_empty() && !ss.is_empty() {
            for _ in 0..rng.gen_range(0..6) {
                s.enrollment.insert((
                    ss[rng.gen_range(0..ss.len())],
                    cs[rng.gen_range(0..cs.len())],
                ));
            }
        }
        s
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> CoursewareUpdate {
        let id = rng.gen_range(0..self.id_space);
        match method {
            ADD_COURSE => CoursewareUpdate::AddCourse(id),
            DELETE_COURSE => CoursewareUpdate::DeleteCourse(id),
            ENROLL => CoursewareUpdate::Enroll(rng.gen_range(0..self.id_space), id),
            REGISTER_STUDENTS => {
                let n = rng.gen_range(1..4);
                CoursewareUpdate::RegisterStudents(
                    (0..n).map(|_| rng.gen_range(0..self.id_space)).collect(),
                )
            }
            other => panic!("courseware has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> CoursewareQuery {
        if rng.gen_bool(0.5) {
            CoursewareQuery::Courses
        } else {
            CoursewareQuery::Enrollments
        }
    }

    fn gen_update(
        &self,
        state: &CoursewareState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        _skew: KeySkew,
    ) -> Option<CoursewareUpdate> {
        match method {
            ADD_COURSE => Some(CoursewareUpdate::AddCourse(node as u64 * 1_000_000 + seq)),
            DELETE_COURSE => Some(CoursewareUpdate::DeleteCourse(pick(&state.courses, rng)?)),
            ENROLL => {
                if state.courses.is_empty() {
                    return None;
                }
                // Student first, then course: the draw order is pinned.
                let student = pick(&state.students, rng)?;
                Some(CoursewareUpdate::Enroll(student, pick(&state.courses, rng)?))
            }
            REGISTER_STUDENTS => Some(CoursewareUpdate::RegisterStudents(vec![
                node as u64 * 1_000_000 + seq,
            ])),
            other => panic!("courseware has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::coord::MethodCategory;
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn coord_spec_has_all_categories() {
        let cw = Courseware::default();
        let c = cw.coord_spec();
        assert!(matches!(c.category(REGISTER_STUDENTS), MethodCategory::Reducible { .. }));
        assert!(c.category(ADD_COURSE).is_conflicting());
        assert!(c.category(ENROLL).is_conflicting());
        assert_eq!(c.sync_groups(), &[vec![ADD_COURSE, DELETE_COURSE, ENROLL]]);
        assert_eq!(c.dependencies(ENROLL), &[ADD_COURSE, REGISTER_STUDENTS]);
    }

    #[test]
    fn enroll_conflicts_with_delete_course() {
        let cw = Courseware::default();
        let r = BoundedRelations::new(&cw, 7, 200);
        assert!(r.conflict(&CoursewareUpdate::Enroll(1, 2), &CoursewareUpdate::DeleteCourse(2)));
        assert!(r.conflict(&CoursewareUpdate::AddCourse(2), &CoursewareUpdate::DeleteCourse(2)));
    }

    #[test]
    fn enroll_depends_on_both_references() {
        let cw = Courseware::default();
        let r = BoundedRelations::new(&cw, 7, 300);
        let e = CoursewareUpdate::Enroll(1, 2);
        assert!(r.dependent(&e, &CoursewareUpdate::AddCourse(2)));
        assert!(r.dependent(&e, &CoursewareUpdate::RegisterStudents(vec![1])));
    }

    #[test]
    fn delete_course_cascades() {
        let cw = Courseware::default();
        let mut s = cw.initial();
        s = cw.apply(&s, &CoursewareUpdate::AddCourse(1));
        s = cw.apply(&s, &CoursewareUpdate::RegisterStudents(vec![7]));
        s = cw.apply(&s, &CoursewareUpdate::Enroll(7, 1));
        assert!(cw.invariant(&s));
        let s2 = cw.apply(&s, &CoursewareUpdate::DeleteCourse(1));
        assert!(cw.invariant(&s2));
        assert_eq!(cw.query(&s2, &CoursewareQuery::Enrollments), 0);
    }

    #[test]
    fn dangling_enrollment_violates_invariant() {
        let cw = Courseware::default();
        let s = cw.apply(&cw.initial(), &CoursewareUpdate::Enroll(7, 1));
        assert!(!cw.invariant(&s));
    }

    #[test]
    fn registration_batches_summarize() {
        let cw = Courseware::default();
        assert_eq!(
            cw.summarize(
                &CoursewareUpdate::RegisterStudents(vec![2, 1]),
                &CoursewareUpdate::RegisterStudents(vec![3])
            ),
            Some(CoursewareUpdate::RegisterStudents(vec![1, 2, 3]))
        );
    }

    #[test]
    fn workload_enroll_needs_both_relations() {
        use rand::SeedableRng;
        let cw = Courseware::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = cw.initial();
        assert_eq!(cw.gen_update(&s, 0, 0, ENROLL, &mut rng, KeySkew::Uniform), None);
        s = cw.apply(&s, &CoursewareUpdate::AddCourse(3));
        assert_eq!(cw.gen_update(&s, 0, 0, ENROLL, &mut rng, KeySkew::Uniform), None);
        s = cw.apply(&s, &CoursewareUpdate::RegisterStudents(vec![5]));
        assert_eq!(
            cw.gen_update(&s, 0, 0, ENROLL, &mut rng, KeySkew::Uniform),
            Some(CoursewareUpdate::Enroll(5, 3))
        );
    }

    /// `gen_update` as it was while it copied the course and student
    /// sets into vectors to index them.
    fn collecting_gen_update(
        cw: &Courseware,
        state: &CoursewareState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        skew: KeySkew,
    ) -> Option<CoursewareUpdate> {
        match method {
            DELETE_COURSE => {
                let cs: Vec<u64> = state.courses.iter().copied().collect();
                if cs.is_empty() {
                    return None;
                }
                Some(CoursewareUpdate::DeleteCourse(cs[rng.gen_range(0..cs.len())]))
            }
            ENROLL => {
                let cs: Vec<u64> = state.courses.iter().copied().collect();
                let ss: Vec<u64> = state.students.iter().copied().collect();
                if cs.is_empty() || ss.is_empty() {
                    return None;
                }
                Some(CoursewareUpdate::Enroll(
                    ss[rng.gen_range(0..ss.len())],
                    cs[rng.gen_range(0..cs.len())],
                ))
            }
            _ => cw.gen_update(state, node, seq, method, rng, skew),
        }
    }

    #[test]
    fn iterator_sampling_draws_what_collecting_drew() {
        let cw = Courseware::default();
        crate::gen_parity::assert_same_draws(&cw, |state, node, seq, method, rng, skew| {
            collecting_gen_update(&cw, state, node, seq, method, rng, skew)
        });
    }
}
