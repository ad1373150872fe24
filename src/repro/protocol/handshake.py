"""Declarative odd/even compaction handshake — paper Section 2.5.

The four-phase handshake of Figures 9/10 is expressed as a rule table.
Each :class:`HandshakeRule` covers one phase of the INC's switching FSM
and encodes the paper's rule for leaving it: a guard over the neighbour
status wires (LD/RD = the neighbours' OD bits, LC/RC = their OC bits,
Table 2) plus the actions taken when the guard holds.  The paper's five
rules::

    1. at reset, OD = OC = 0 for all INCs          (initial state)
    2. OD := 1  if ID = 1 and LC = 0 and RC = 0
    3. OC := 1  if OD = 1 and LD = 1 and RD = 1    (figure 10)
    4. OD := 0  if OD = 1 and LC = 1 and RC = 1
    5. OC := 0  if OC = 1 and LD = 0 and RD = 0

``ID`` ("own datapaths switched") is modelled by the WORK step: the INC
performs its compaction moves as the first action of each cycle, then
raises ``ID`` implicitly by moving to the rule-2 phase.

:class:`repro.core.cycles.CycleController` executes this table one rule
evaluation per local clock edge; :mod:`repro.protocol.explore` walks the
same table exhaustively to machine-check Lemma 1 (neighbour cycle skew
never exceeds one).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Protocol, Tuple


class HandshakePhase(enum.Enum):
    """The four switching states of Figure 9 (plus the work step)."""

    WORK = "work"              # perform this cycle's datapath switches
    ASSERT_OD = "assert_od"    # rule 2: wait LC = RC = 0, then OD := 1
    SWITCH_CYCLE = "switch"    # rule 3: wait LD = RD = 1, then OC := 1
    CLEAR_OD = "clear_od"      # rule 4: wait LC = RC = 1, then OD := 0
    CLEAR_OC = "clear_oc"      # rule 5: wait LD = RD = 0, then OC := 0


class HandshakeState(NamedTuple):
    """Pure snapshot of one INC's handshake FSM (for table replay)."""

    phase: HandshakePhase
    od: bool
    oc: bool


class NeighbourBits(NamedTuple):
    """One neighbour's status wires as seen across the ring (Table 2)."""

    od: bool  # LD or RD
    oc: bool  # LC or RC


class StatusWires(Protocol):
    """Anything exposing one INC's OD/OC bits: a :class:`NeighbourBits`
    snapshot, or a live :class:`~repro.core.cycles.CycleController`."""

    @property
    def od(self) -> bool: ...

    @property
    def oc(self) -> bool: ...


@dataclass(frozen=True)
class HandshakeRule:
    """One row of the handshake table: guard and actions for one phase.

    ``requires_od`` / ``requires_oc`` constrain *both* neighbours' bits
    (``None`` = don't care); ``sets_od`` / ``sets_oc`` assign the INC's
    own bits when the guard holds.  At most one rule applies per phase,
    so the table is deterministic by construction.
    """

    rule: int                        # paper rule number (0 = work step)
    phase: HandshakePhase
    requires_od: Optional[bool]      # guard on LD and RD
    requires_oc: Optional[bool]      # guard on LC and RC
    sets_od: Optional[bool]
    sets_oc: Optional[bool]
    advances_cycle: bool
    does_work: bool
    next_phase: HandshakePhase


_P = HandshakePhase

HANDSHAKE_TABLE: Tuple[HandshakeRule, ...] = (
    # The work step: datapath switches for this cycle, then raise ID.
    HandshakeRule(0, _P.WORK, None, None, None, None,
                  advances_cycle=False, does_work=True,
                  next_phase=_P.ASSERT_OD),
    # Rule 2: OD := 1 once both neighbours have dropped their OC.
    HandshakeRule(2, _P.ASSERT_OD, None, False, True, None,
                  advances_cycle=False, does_work=False,
                  next_phase=_P.SWITCH_CYCLE),
    # Rule 3 (Figure 10): OC := 1 — and the local cycle count advances —
    # once both neighbours have asserted OD.
    HandshakeRule(3, _P.SWITCH_CYCLE, True, None, None, True,
                  advances_cycle=True, does_work=False,
                  next_phase=_P.CLEAR_OD),
    # Rule 4: OD := 0 once both neighbours have asserted OC.
    HandshakeRule(4, _P.CLEAR_OD, None, True, False, None,
                  advances_cycle=False, does_work=False,
                  next_phase=_P.CLEAR_OC),
    # Rule 5: OC := 0 once both neighbours have dropped OD.
    HandshakeRule(5, _P.CLEAR_OC, False, None, None, False,
                  advances_cycle=False, does_work=False,
                  next_phase=_P.WORK),
)

#: Phase -> governing rule.  Exactly one rule per phase (asserted below).
RULE_OF_PHASE: Dict[HandshakePhase, HandshakeRule] = {
    rule.phase: rule for rule in HANDSHAKE_TABLE
}
assert len(RULE_OF_PHASE) == len(HANDSHAKE_TABLE)

#: Rule 1 (reset): every INC starts in WORK with OD = OC = 0.
RESET_STATE = HandshakeState(_P.WORK, od=False, oc=False)

#: The INC's own (OD, OC) bits are a function of its phase — the table
#: forms a Gray-code-like loop (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0).
#: Explorers use this to check bit/phase consistency.
BITS_OF_PHASE: Dict[HandshakePhase, Tuple[bool, bool]] = {
    _P.WORK: (False, False),
    _P.ASSERT_OD: (False, False),
    _P.SWITCH_CYCLE: (True, False),
    _P.CLEAR_OD: (True, True),
    _P.CLEAR_OC: (False, True),
}


def guard_satisfied(rule: HandshakeRule, left: StatusWires,
                    right: StatusWires) -> bool:
    """True when both neighbours' wires satisfy the rule's guard."""
    if rule.requires_od is not None and not (
            left.od == rule.requires_od == right.od):
        return False
    if rule.requires_oc is not None and not (
            left.oc == rule.requires_oc == right.oc):
        return False
    return True


def handshake_step(
    state: HandshakeState, left: NeighbourBits, right: NeighbourBits,
) -> Tuple[HandshakeState, Optional[HandshakeRule]]:
    """Evaluate one clock edge of the table, purely.

    Returns the successor state and the rule that fired (``None`` when
    the guard held the FSM in place).  ``advances_cycle`` / ``does_work``
    on the returned rule tell the caller which side effects to run.
    """
    rule = RULE_OF_PHASE[state.phase]
    if not guard_satisfied(rule, left, right):
        return state, None
    od = state.od if rule.sets_od is None else rule.sets_od
    oc = state.oc if rule.sets_oc is None else rule.sets_oc
    return HandshakeState(rule.next_phase, od, oc), rule
