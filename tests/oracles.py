"""Reference oracles for the phase functions, by enumeration and by
observation: each answers for one concrete instance what ``phi``'s
polynomial claims for all of them."""

from typing import Mapping

from clockrace.hb import governed_advances, hb_disjuncts
from clockrace.interp import ClockKey, ExploreResult, Instance, instantiate, term_instances
from clockrace.syntax import Program


def count_concrete(
    p: Program,
    finish_id: int,
    stmt_id: int,
    point: Mapping[str, int],
    params: Mapping[str, int],
) -> int:
    """Reference count of governed advances ordered before one concrete
    instance, by exhaustive enumeration of the instantiated advances."""
    env_v = {"v_" + k: x for k, x in point.items()}
    env_v.update(params)
    instances = term_instances(instantiate(p, params))
    count = 0
    for adv_id in governed_advances(p, finish_id):
        disjuncts = hb_disjuncts(p, adv_id, stmt_id, "a_", "v_")
        for _, node_id, adv_env in instances:
            if node_id != adv_id:
                continue
            env = {("a_" + k): x for k, x in adv_env}
            env.update(env_v)
            if any(all(c.satisfied(env) for c in d) for d in disjuncts):
                count += 1
    return count


def dynamic_phi(res: ExploreResult, inst: Instance, clock: ClockKey) -> int:
    """Observed clock phase of an executed instance: the number of clock
    steps the given clock instance had taken when the statement ran.  The
    phase is schedule-independent for well-clocked programs; a multi-valued
    observation is reported as an error."""
    vals = {dict(snap).get(clock, 0) for snap in res.phases.get(inst, ())}
    if len(vals) != 1:
        raise ValueError(f"phase of {inst} w.r.t. {clock} is not unique: {sorted(vals)}")
    return next(iter(vals))
