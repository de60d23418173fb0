"""Helpers the state tests share."""

from typing import Any, Hashable


def rmw(state, key: Hashable, value: Any) -> None:
    """Fold one stream value into ``key``: the per-record update, as the
    absorb of a one-value partial.

    ``state`` is a ``LogStructuredStore`` or an ``OperatorStateHandle``
    (which routes ``key`` to the store of its partition).
    """
    crdt = state.crdt
    if hasattr(state, "store_for"):
        state = state.store_for(state.partition_of(key))
    state.absorb(key, crdt.update(crdt.zero(), value))
