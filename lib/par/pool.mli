(** A fork-join pool of OCaml 5 domains.

    [run pool f] runs [f 0] on the calling domain and [f i] on worker
    domain [i], for every [i] below {!domains}, and returns once all of
    them have finished.  There is no task queue and no future: a caller
    that wants to split work passes each index its share.  [run] is the
    barrier, so the caller may read everything the indices wrote once
    it returns, and the indices see everything the caller wrote before
    it called [run].

    A pool belongs to the domain that created it: call {!run} and
    {!shutdown} from that domain only, and never from inside [f]. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains; [domains]
    counts the calling domain, so [domains = 1] spawns none and runs
    everything on the caller.  Raises [Invalid_argument] if
    [domains < 1]. *)

val domains : t -> int
(** The [domains] the pool was created with. *)

val run : t -> (int -> unit) -> unit
(** [run pool f] runs [f i] once for each index [i] in
    [0 .. domains pool - 1], [f 0] on the caller, and returns when all
    have finished.  If any raises, [run] waits for every index to
    finish, then re-raises the first exception (with its backtrace) on
    the caller; the pool stays usable.  Raises [Invalid_argument] after
    {!shutdown}. *)

val shutdown : t -> unit
(** Stop the worker domains, without waiting for them to exit.
    Idempotent. *)
