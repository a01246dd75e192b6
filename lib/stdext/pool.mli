(** Fixed-size domain pool: a work-queue executor over raw [Domain]s.

    The checkers fan independent, deterministic units of work (exploration
    chunks, experiment grid cells) across OCaml 5 domains. Determinism is
    recovered by awaiting results in submission order, never in completion
    order.

    With [domains <= 1] no domain is spawned and every task runs inline in
    the caller at submission time, so sequential and parallel callers share
    one code path.

    Tasks start in FIFO order: no task starts before every task submitted
    earlier has started. A task may therefore wait for something only an
    earlier task provides, since that task is already running (the
    explorer's chunks wait for their budget caps this way). A task must
    not {!await} another task of the same pool: a waiting task holds its
    worker, and with every worker waiting no queued task can start. *)

type t

type 'a promise
(** The future result of a submitted task. *)

val create : domains:int -> t
(** [create ~domains] starts [domains] worker domains ([domains <= 1]
    starts none: inline mode). Call {!shutdown} when done, or use {!run}. *)

val size : t -> int
(** Number of worker domains (0 in inline mode). *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Queue a task behind every task submitted before it. Raises
    [Invalid_argument] on a shut-down pool. In inline mode the task runs
    immediately in the caller. *)

val await : 'a promise -> 'a
(** Block until the task finished. An exception raised by the task is
    re-raised here (with its backtrace), never swallowed by a worker. May
    be called multiple times; every call returns/raises the same result. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] submits [f x] for every element and awaits the
    results in submission order: the output list matches [List.map f xs]
    whenever [f] is deterministic, independent of worker scheduling. *)

val shutdown : t -> unit
(** Finish the queued tasks, then join all workers. Idempotent. *)

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] is [f pool] on a fresh pool, with {!shutdown}
    guaranteed afterwards (also on exceptions). *)
