(** Deferred pair execution (a Sec. 5 extension): defer the bulk of
    handling event A until the next event arrives; if that event has a
    jointly-compiled (A ++ follower) pair body, run it — letting the
    compiler passes optimize across the two events' former boundary.
    Particularly useful when A's successor is B or C with roughly equal
    probability, where neither chaining nor speculation applies.

    Deferral is opt-in per event: it is only sound when nothing between
    A and the next event observes A's effects, so events whose handlers
    raise further events or may halt are rejected. *)

open Podopt_eventsys

exception Not_deferrable of string

(** Build the "alone" body and one pair body per mergeable follower, and
    install the deferral entry.  Raises {!Not_deferrable} (handlers
    raise or halt) or {!Superhandler.Not_mergeable} (for [event]
    itself). *)
val install :
  ?passes:Podopt_hir.Pipeline.pass list -> Runtime.t -> event:string ->
  followers:string list -> unit
