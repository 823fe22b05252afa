"""Shared experiment daemon: HTTP front-end over the orchestrator.

The futures orchestrator (:mod:`repro.experiments.orchestrator`) gives
one process non-blocking ``submit``/``as_resolved`` semantics over a
persistent result store.  This package puts a network front-end on it
so *many* clients share one long-lived daemon -- one worker pool, one
store, one in-flight dedup table:

* :mod:`repro.service.codec` -- reversible JSON encoding of the
  request object universe (configs, policies, packs), the sibling of
  the orchestrator's one-way ``canonical``;
* :mod:`repro.service.protocol` -- the wire envelopes for
  :class:`~repro.experiments.orchestrator.RunRequest` and
  :class:`~repro.experiments.orchestrator.RunArtifact`;
* :mod:`repro.service.server` -- the threaded stdlib-HTTP daemon
  behind ``repro serve`` (``POST /runs``, ``/runs/batch`` and
  ``/runs/poll``, ``GET /runs/<fp>``, ``/healthz``, ``/stats``);
* :mod:`repro.service.client` -- :class:`ServiceClient`, a drop-in
  :class:`~repro.experiments.orchestrator.Orchestrator` replacement
  that resolves runs against a remote daemon (the CLI's ``--service``
  path);
* :mod:`repro.service.fleet` -- :class:`FleetClient`, the same
  consumer surface over *many* daemons sharing one store root,
  routing each fingerprint to exactly one member by rendezvous
  hashing and failing dead members over (the CLI's
  ``--service URL1,URL2,...`` path).

See DESIGN.md ("Experiment service", "Fleet") for the wire protocol,
dedup semantics and when to choose the in-process orchestrator (or a
single big daemon) instead.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.fleet import (
    FleetClient,
    parse_fleet_spec,
    rendezvous_member,
)
from repro.service.protocol import (
    WIRE_VERSION,
    WireError,
    decode_artifact,
    decode_request,
    encode_artifact,
    encode_request,
)
from repro.service.server import ExperimentDaemon

__all__ = [
    "ExperimentDaemon",
    "FleetClient",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "WIRE_VERSION",
    "WireError",
    "decode_artifact",
    "decode_request",
    "encode_artifact",
    "encode_request",
    "parse_fleet_spec",
    "rendezvous_member",
]
