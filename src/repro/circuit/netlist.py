"""The :class:`Circuit` container: a validated flat netlist."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import NetlistError
from .elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Element,
    Mosfet,
    Resistor,
    VoltageSource,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import CanonicalForm

__all__ = ["Circuit"]


class Circuit:
    """A flat netlist of primitive elements over named nodes.

    Element names must be unique (case-insensitive, as in SPICE).  The
    ground node is always ``"0"``; :meth:`validate` checks that every node
    has a DC path to ground and at least two connections.
    """

    def __init__(self, name: str = "circuit"):
        if not name:
            raise NetlistError("circuit name must be non-empty")
        self.name = name
        self._elements: List[Element] = []
        self._by_name: Dict[str, Element] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add any prebuilt element; returns it for chaining."""
        key = element.name.lower()
        if key in self._by_name:
            raise NetlistError(f"duplicate element name: {element.name!r}")
        self._by_name[key] = element
        self._elements.append(element)
        return element

    def add_mosfet(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        polarity: str,
        width: float,
        length: float,
        multiplier: int = 1,
    ) -> Mosfet:
        return self.add(
            Mosfet(name, drain, gate, source, bulk, polarity, width, length, multiplier)
        )

    def add_resistor(self, name: str, node_a: str, node_b: str, resistance: float) -> Resistor:
        return self.add(Resistor(name, node_a, node_b, resistance))

    def add_capacitor(self, name: str, node_a: str, node_b: str, capacitance: float) -> Capacitor:
        return self.add(Capacitor(name, node_a, node_b, capacitance))

    def add_vsource(
        self, name: str, positive: str, negative: str, dc: float = 0.0, ac: float = 0.0
    ) -> VoltageSource:
        return self.add(VoltageSource(name, positive, negative, dc, ac))

    def add_isource(
        self, name: str, positive: str, negative: str, dc: float = 0.0, ac: float = 0.0
    ) -> CurrentSource:
        return self.add(CurrentSource(name, positive, negative, dc, ac))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def __getitem__(self, name: str) -> Element:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def of_type(self, element_type: type) -> Iterator[Element]:
        """Iterate elements of a given class (e.g. ``Mosfet``)."""
        return (e for e in self._elements if isinstance(e, element_type))

    @property
    def mosfets(self) -> List[Mosfet]:
        return [e for e in self._elements if isinstance(e, Mosfet)]

    def mosfet(self, name: str) -> Mosfet:
        """The MOSFET with this name.

        Raises:
            NetlistError: when the element is missing or not a MOSFET.
        """
        element = self[name]
        if not isinstance(element, Mosfet):
            raise NetlistError(f"element {name!r} is not a MOSFET")
        return element

    @property
    def capacitors(self) -> List[Capacitor]:
        return [e for e in self._elements if isinstance(e, Capacitor)]

    @property
    def nodes(self) -> List[str]:
        """All node names, ground included if referenced, sorted."""
        seen: Set[str] = set()
        for element in self._elements:
            seen.update(element.nodes)
        return sorted(seen)

    def internal_nodes(self) -> List[str]:
        """Non-ground nodes, sorted (the MNA unknowns)."""
        return [n for n in self.nodes if n != GROUND]

    def transistor_count(self) -> int:
        """Total transistor count, fingers included."""
        return sum(m.multiplier for m in self.mosfets)

    def node_degree(self) -> Dict[str, int]:
        """Number of element terminals attached to each node."""
        degree: Dict[str, int] = {}
        for element in self._elements:
            for node in element.nodes:
                degree[node] = degree.get(node, 0) + 1
        return degree

    # ------------------------------------------------------------------
    # Structure / validation
    # ------------------------------------------------------------------
    def connectivity_graph(
        self, dc_only: bool = False
    ) -> Tuple[Set[str], List[Tuple[str, str]]]:
        """Undirected element-connectivity graph over nodes, as the pair
        ``(nodes, edges)``; feed it to
        :func:`repro.circuit.graph.connected_components`.

        With ``dc_only`` capacitors are skipped (no DC path through a cap),
        a current source keeps its nodes but adds no edge (it is an open
        circuit at DC), and a MOSFET contributes only its drain-source
        edge: the gate draws no DC current, and the gate and bulk stay
        nodes of the graph (a floating gate driven by nothing is caught by
        :meth:`validate`'s separate driven-gate check).
        """
        nodes: Set[str] = set()
        edges: List[Tuple[str, str]] = []
        for element in self._elements:
            if dc_only and isinstance(element, Capacitor):
                continue
            nodes.update(element.nodes)
            if dc_only and isinstance(element, CurrentSource):
                continue
            if dc_only and isinstance(element, Mosfet):
                edges.append((element.drain, element.source))
            else:
                first = element.nodes[0]
                edges.extend((first, other) for other in element.nodes[1:])
        return nodes, edges

    def canonical_form(self) -> "CanonicalForm":
        """Relabeling-invariant canonical ordering of this circuit.

        See :func:`repro.circuit.graph.canonical_form`.
        """
        from .graph import canonical_form

        return canonical_form(self)

    def validate(self) -> None:
        """Check structural soundness.

        Implemented on top of the structural subset of the ERC lint pass
        (:func:`repro.lint.erc.validation_diagnostics`), so there is a
        single source of truth for what "structurally valid" means.
        Unlike a plain lint run, this *collects every violation* and
        raises once with all of them.

        Raises:
            NetlistError: if the circuit is empty, has no ground
                reference, has any node with a single connection
                (dangling), or has a node unreachable from ground.  The
                message lists **all** violations found, not just the
                first.
        """
        # Imported lazily: repro.lint imports this module.
        from ..lint.erc import validation_diagnostics

        diagnostics = validation_diagnostics(self)
        if diagnostics:
            details = "; ".join(d.message for d in diagnostics)
            raise NetlistError(
                f"{self.name}: {len(diagnostics)} structural violation(s): "
                f"{details}"
            )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def merge(
        self,
        other: "Circuit",
        prefix: str = "",
        node_map: Optional[Dict[str, str]] = None,
    ) -> None:
        """Splice another circuit into this one.

        Args:
            other: circuit whose elements are copied in.
            prefix: prepended (with a dot) to every copied element name.
            node_map: renames ``other``'s nodes; unmapped non-ground nodes
                are prefixed to keep them private.
        """
        node_map = dict(node_map or {})
        for element in other.elements:
            # The leading device-type letter must survive prefixing for
            # SPICE compatibility, so the prefix goes after it and the full
            # original name (letter included) follows, matching the
            # CircuitBuilder convention: "m1" -> "mbias.m1".
            if prefix:
                letter = element.name[0]
                new_name = f"{letter}{prefix}.{element.name}"
            else:
                new_name = element.name
            mapped_nodes = {}
            for node in element.nodes:
                if node in node_map:
                    mapped_nodes[node] = node_map[node]
                elif node == GROUND:
                    mapped_nodes[node] = GROUND
                elif prefix:
                    mapped_nodes[node] = f"{prefix}.{node}"
                else:
                    mapped_nodes[node] = node
            self.add(_remap(element.renamed(new_name), mapped_nodes))

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """A shallow copy (elements are immutable so sharing is safe)."""
        duplicate = Circuit(name or self.name)
        for element in self._elements:
            duplicate.add(element)
        return duplicate

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, {len(self)} elements, {len(self.nodes)} nodes)"


def _remap(element: Element, node_map: Dict[str, str]) -> Element:
    """Rebuild an element with renamed nodes."""
    from dataclasses import fields, replace

    updates = {}
    for field_info in fields(element):
        value = getattr(element, field_info.name)
        if isinstance(value, str) and value in node_map and field_info.name != "name":
            # Only terminal fields hold node names; all are plain strings.
            if field_info.name in (
                "drain",
                "gate",
                "source",
                "bulk",
                "node_a",
                "node_b",
                "positive",
                "negative",
            ):
                updates[field_info.name] = node_map[value]
    return replace(element, **updates)
