"""Pass 1: electrical rule checks (ERC) over a flat :class:`Circuit`.

These are the netlist-shaped "predictable failure modes" of Section 3.3:
structural mistakes that are certain to break (or quietly corrupt) the
numerical work downstream, caught *before* MNA assembly.  The checkers
reuse the :meth:`~repro.circuit.netlist.Circuit.connectivity_graph`
machinery rather than re-deriving connectivity.

Code map (namespace ``ERC1xx``):

====== ======== ==========================================================
code   severity finding
====== ======== ==========================================================
ERC100 error    circuit is empty
ERC101 error    floating / single-connection (dangling) node
ERC102 error    no element connects to ground
ERC103 error    node unreachable from ground (disconnected island)
ERC104 warning  node with no DC path to ground (capacitor/current-source
                coupled only; the DC matrix is singular without gmin)
ERC105 error    MOSFET gate with no DC driver (gate-only net)
ERC106 warning  bulk-terminal polarity violation (NMOS bulk above the
                lowest rail / PMOS bulk below the highest)
ERC107 error    device geometry below the process minimum W / L
ERC108 error    supply-to-supply short: a zero-resistance (voltage-source)
                loop
ERC109 warning  current-mirror partners with mismatched channel length
ERC110 error    dangling subcircuit port (declared but unused in the body)
ERC111 error    duplicate element / instance name within one deck scope
                (flattening would silently merge the two bodies' nodes)
====== ======== ==========================================================

The structural subset (ERC100-ERC103) is exactly what
:meth:`Circuit.validate` enforces; ``validate`` is implemented on top of
this pass so there is a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..circuit.elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Mosfet,
    VoltageSource,
)
from ..circuit.graph import connected_components
from ..circuit.netlist import Circuit
from ..process.parameters import ProcessParameters
from .diagnostics import Diagnostic, LintReport, Severity
from .registry import ERC_REGISTRY

__all__ = [
    "LintContext",
    "lint_circuit",
    "lint_spice_deck",
    "validation_diagnostics",
    "assert_erc_clean",
]

#: Relative tolerance for geometry and length comparisons.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class LintContext:
    """Context handed to every ERC checker.

    Attributes:
        process: optional process parameters; geometry checks are skipped
            without one.
    """

    process: Optional[ProcessParameters] = None


def _loc(circuit: Circuit, detail: str) -> str:
    return f"{circuit.name}:{detail}"


def _grounded(nodes: Set[str], edges: Iterable[Tuple[str, str]]) -> Set[str]:
    """The nodes connected to ground; ``GROUND`` must be in ``nodes``."""
    return next(
        component
        for component in connected_components(nodes, edges)
        if GROUND in component
    )


# ----------------------------------------------------------------------
# Structural checkers (the Circuit.validate subset)
# ----------------------------------------------------------------------
@ERC_REGISTRY.register("empty-circuit", ["ERC100"], structural=True)
def check_empty(circuit: Circuit, context: LintContext) -> Iterator[Diagnostic]:
    """The circuit has no elements at all."""
    if len(circuit) == 0:
        yield Diagnostic(
            "ERC100",
            Severity.ERROR,
            "circuit is empty",
            location=circuit.name,
            suggestion="add elements before validating or simulating",
        )


@ERC_REGISTRY.register("ground-reference", ["ERC102"], structural=True)
def check_ground(circuit: Circuit, context: LintContext) -> Iterator[Diagnostic]:
    """Some element must reference the ground node '0'."""
    if len(circuit) and GROUND not in circuit.node_degree():
        yield Diagnostic(
            "ERC102",
            Severity.ERROR,
            "no element connects to ground '0'",
            location=circuit.name,
            suggestion="tie the reference node to '0' (SPICE ground)",
        )


@ERC_REGISTRY.register("dangling-node", ["ERC101"], structural=True)
def check_dangling(circuit: Circuit, context: LintContext) -> Iterator[Diagnostic]:
    """Every non-ground node needs at least two element terminals."""
    for node, degree in sorted(circuit.node_degree().items()):
        if degree < 2 and node != GROUND:
            yield Diagnostic(
                "ERC101",
                Severity.ERROR,
                f"dangling node {node!r}: only one element terminal attached",
                location=_loc(circuit, node),
                suggestion="connect the node or remove the stub element",
            )


@ERC_REGISTRY.register("ground-reachability", ["ERC103"], structural=True)
def check_reachability(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """Every node must be connected (by any element) to ground."""
    if len(circuit) == 0:
        return
    nodes, edges = circuit.connectivity_graph()
    if GROUND not in nodes:
        return  # ERC102 already covers the missing reference
    for node in sorted(nodes - _grounded(nodes, edges)):
        yield Diagnostic(
            "ERC103",
            Severity.ERROR,
            f"node {node!r} is unreachable from ground (disconnected island)",
            location=_loc(circuit, node),
            suggestion="bridge the island to the grounded portion",
        )


# ----------------------------------------------------------------------
# Electrical-quality checkers
# ----------------------------------------------------------------------
@ERC_REGISTRY.register("dc-path-to-ground", ["ERC104"])
def check_dc_path(circuit: Circuit, context: LintContext) -> Iterator[Diagnostic]:
    """Nodes coupled to ground only through capacitors or current sources
    leave the DC operating point undefined (gmin shunts aside)."""
    if len(circuit) == 0:
        return
    nodes, edges = circuit.connectivity_graph(dc_only=True)
    if GROUND not in nodes:
        return
    reachable = _grounded(nodes, edges)
    grounded = _grounded(*circuit.connectivity_graph())
    # Candidate nodes come from the *full* graph: a node touched only by
    # capacitors never even appears in the DC-only graph.
    for node in sorted(grounded - reachable - {GROUND}):
        yield Diagnostic(
            "ERC104",
            Severity.WARNING,
            f"node {node!r} has no DC path to ground "
            f"(reachable only through capacitors or current sources)",
            location=_loc(circuit, node),
            suggestion="add a DC bias path (resistor, device channel, "
            "or voltage source)",
        )


@ERC_REGISTRY.register("undriven-gate", ["ERC105"])
def check_undriven_gates(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """A net touched only by MOSFET gates (plus at most capacitors or
    current sources) has no DC driver: the gate voltage is undefined."""
    gates: Dict[str, List[str]] = {}
    driven: Dict[str, bool] = {}
    for element in circuit.elements:
        if isinstance(element, Mosfet):
            gates.setdefault(element.gate, []).append(element.name)
            for node in (element.drain, element.source):
                driven[node] = True
            # A bulk tie does not set a gate voltage; not a driver.
        elif isinstance(element, (Capacitor, CurrentSource)):
            continue  # no DC drive through either
        else:  # resistors, voltage sources
            for node in element.nodes:
                driven[node] = True
    driven[GROUND] = True
    for node, names in sorted(gates.items()):
        if not driven.get(node, False):
            yield Diagnostic(
                "ERC105",
                Severity.ERROR,
                f"gate net {node!r} has no DC driver "
                f"(only gates attached: {', '.join(sorted(names))})",
                location=_loc(circuit, node),
                suggestion="bias the gate from a driven net "
                "(diode-connect, resistor, or source)",
            )


def _known_potentials(circuit: Circuit) -> Dict[str, float]:
    """DC potentials derivable from ground through voltage sources."""
    known: Dict[str, float] = {GROUND: 0.0}
    sources = list(circuit.of_type(VoltageSource))
    changed = True
    while changed:
        changed = False
        for source in sources:
            pos, neg = source.positive, source.negative
            if pos in known and neg not in known:
                known[neg] = known[pos] - source.dc
                changed = True
            elif neg in known and pos not in known:
                known[pos] = known[neg] + source.dc
                changed = True
    return known


@ERC_REGISTRY.register("bulk-polarity", ["ERC106"])
def check_bulk_polarity(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """NMOS bulks belong at the lowest rail, PMOS bulks at the highest;
    anything else forward-biases a junction somewhere in the swing.
    Source-tied bulks (isolated wells) are exempt."""
    known = _known_potentials(circuit)
    if len(known) < 2:
        return  # no rail information to judge against
    vmin, vmax = min(known.values()), max(known.values())
    for mosfet in circuit.mosfets:
        if mosfet.bulk == mosfet.source or mosfet.bulk not in known:
            continue
        potential = known[mosfet.bulk]
        if mosfet.polarity == "nmos" and potential > vmin + 1e-9:
            yield Diagnostic(
                "ERC106",
                Severity.WARNING,
                f"{mosfet.name}: NMOS bulk on {mosfet.bulk!r} "
                f"({potential:+.2f} V) above the lowest rail "
                f"({vmin:+.2f} V)",
                location=_loc(circuit, mosfet.name),
                suggestion="tie the bulk to the most negative rail "
                "(or to the source in an isolated well)",
            )
        elif mosfet.polarity == "pmos" and potential < vmax - 1e-9:
            yield Diagnostic(
                "ERC106",
                Severity.WARNING,
                f"{mosfet.name}: PMOS bulk on {mosfet.bulk!r} "
                f"({potential:+.2f} V) below the highest rail "
                f"({vmax:+.2f} V)",
                location=_loc(circuit, mosfet.name),
                suggestion="tie the bulk to the most positive rail "
                "(or to the source in an isolated well)",
            )


@ERC_REGISTRY.register("min-geometry", ["ERC107"])
def check_min_geometry(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """Drawn W and L must not fall below the process minimums."""
    process = context.process
    if process is None:
        return
    w_floor = process.min_width * (1.0 - _REL_TOL)
    l_floor = process.min_length * (1.0 - _REL_TOL)
    for mosfet in circuit.mosfets:
        if mosfet.width < w_floor:
            yield Diagnostic(
                "ERC107",
                Severity.ERROR,
                f"{mosfet.name}: W = {mosfet.width * 1e6:.2f} um below the "
                f"process minimum {process.min_width * 1e6:.2f} um",
                location=_loc(circuit, mosfet.name),
                suggestion="widen the device or use a multiplier of a "
                "legal-width finger",
            )
        if mosfet.length < l_floor:
            yield Diagnostic(
                "ERC107",
                Severity.ERROR,
                f"{mosfet.name}: L = {mosfet.length * 1e6:.2f} um below the "
                f"process minimum {process.min_length * 1e6:.2f} um",
                location=_loc(circuit, mosfet.name),
                suggestion="lengthen the channel to the process minimum",
            )


@ERC_REGISTRY.register("supply-short", ["ERC108"])
def check_supply_short(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """A loop of voltage sources is a zero-resistance short: the branch
    currents are indeterminate and real silicon burns.  This includes
    the classic vdd-to-vss short through paralleled sources."""
    parent: Dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for source in circuit.of_type(VoltageSource):
        root_a = find(source.positive)
        root_b = find(source.negative)
        if root_a == root_b:
            yield Diagnostic(
                "ERC108",
                Severity.ERROR,
                f"{source.name}: closes a zero-resistance loop of voltage "
                f"sources between {source.positive!r} and "
                f"{source.negative!r} (supply-to-supply short)",
                location=_loc(circuit, source.name),
                suggestion="remove the redundant source or insert series "
                "resistance",
            )
        else:
            parent[root_a] = root_b


@ERC_REGISTRY.register("mirror-ratio", ["ERC109"])
def check_mirror_ratio(
    circuit: Circuit, context: LintContext
) -> Iterator[Diagnostic]:
    """Devices mirroring a diode-connected reference (same gate net, same
    source net, same polarity) must share its channel length: the mirror
    ratio is set by W alone only when the lengths match."""
    # Group mirror candidates by (gate net, source net, polarity).
    groups: Dict[Tuple[str, str, str], List[Mosfet]] = {}
    for mosfet in circuit.mosfets:
        key = (mosfet.gate, mosfet.source, mosfet.polarity)
        groups.setdefault(key, []).append(mosfet)
    for (gate, _source, _pol), members in sorted(groups.items()):
        diodes = [m for m in members if m.drain == m.gate]
        if not diodes or len(members) < 2:
            continue
        ref = diodes[0]
        for member in members:
            if member is ref:
                continue
            if abs(member.length - ref.length) > ref.length * 1e-6:
                yield Diagnostic(
                    "ERC109",
                    Severity.WARNING,
                    f"{member.name}: mirrors diode {ref.name} on gate net "
                    f"{gate!r} but L = {member.length * 1e6:.2f} um differs "
                    f"from the reference L = {ref.length * 1e6:.2f} um; the "
                    f"W/L ratio (and so the mirror ratio) is ill-defined",
                    location=_loc(circuit, member.name),
                    suggestion="match the channel lengths; set the ratio "
                    "with W (or a multiplier) only",
                )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_circuit(
    circuit: Circuit,
    process: Optional[ProcessParameters] = None,
    structural_only: bool = False,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the ERC pass over a circuit.

    Args:
        circuit: the flat netlist.
        process: optional process (enables geometry checks, ERC107).
        structural_only: restrict to the ``Circuit.validate`` subset.
        select / ignore: optional code filters (see
            :meth:`~repro.lint.registry.CheckerRegistry.run`).
    """
    return ERC_REGISTRY.run(
        circuit,
        LintContext(process=process),
        structural_only=structural_only,
        select=select,
        ignore=ignore,
    )


def validation_diagnostics(circuit: Circuit) -> List[Diagnostic]:
    """The :meth:`Circuit.validate` subset: structural ERC findings only."""
    return list(lint_circuit(circuit, structural_only=True))


def assert_erc_clean(
    circuit: Circuit,
    process: Optional[ProcessParameters] = None,
    context: str = "",
) -> LintReport:
    """Strict gate: run the full ERC pass and raise
    :class:`~repro.errors.LintError` on any error-severity finding.

    Returns the report (warnings included) when clean enough to proceed.
    """
    report = lint_circuit(circuit, process=process)
    report.raise_if_errors(context or f"ERC({circuit.name})")
    return report


def lint_spice_deck(
    text: str,
    process: Optional[ProcessParameters] = None,
    name: str = "deck",
) -> LintReport:
    """Lint a SPICE deck: duplicate-name (ERC111) and subcircuit-port
    (ERC110) checks plus the full ERC pass over the flattened top-level
    circuit.

    Name collisions are reported *instead of* the flattened-circuit
    pass: flattening a deck with duplicates would either crash or
    silently merge two bodies' nodes, so there is no sound circuit to
    lint until they are fixed.
    """
    from ..circuit.netlist_io import parse_deck, scan_duplicate_names

    duplicates = scan_duplicate_names(text)
    if duplicates:
        report = LintReport()
        for scope, dup_name, first, second in duplicates:
            report.add(
                Diagnostic(
                    "ERC111",
                    Severity.ERROR,
                    f"duplicate name {dup_name!r} in {scope}: declared "
                    f"at line {first} and again at line {second} -- "
                    f"flattening would silently fold both elements' "
                    f"nodes into one hierarchy prefix",
                    location=f"{name}:line {second}",
                    suggestion="rename one of the colliding elements or "
                    "instances",
                )
            )
        return report
    circuit, subckts = parse_deck(text, name=name)
    report = LintReport()
    for subckt in subckts.values():
        used = {n for element in subckt.circuit.elements for n in element.nodes}
        for port in subckt.ports:
            if port not in used:
                report.add(
                    Diagnostic(
                        "ERC110",
                        Severity.ERROR,
                        f".subckt {subckt.name}: port {port!r} is dangling "
                        f"(no element in the body connects to it)",
                        location=f"{name}:{subckt.name}",
                        suggestion="wire the port inside the subcircuit or "
                        "drop it from the port list",
                    )
                )
    report.extend(lint_circuit(circuit, process=process))
    return report
