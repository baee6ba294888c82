(** NOR-flash simulator.

    Real microcontroller flash has erase-before-write semantics: an erase
    sets a page to all-ones, programming can only clear bits (1 -> 0).
    This simulator makes a forgotten erase a checked error so firmware
    logic (slot manager, SUIT install path) must handle it correctly;
    per-page erase counters model wear. *)

type t

type error =
  | Out_of_range of { offset : int; length : int }
  | Write_needs_erase of { page : int }
  | Unaligned_erase of { offset : int }

val error_to_string : error -> string

val create : ?page_size:int -> pages:int -> unit -> t
(** Fresh (fully erased) flash; [page_size] defaults to 256. *)

val size : t -> int
val page_size : t -> int
val erase_count : t -> int -> int
val total_erases : t -> int

val read : t -> offset:int -> length:int -> (bytes, error) result

val write : t -> offset:int -> bytes -> (unit, error) result
(** Program bytes; fails with [Write_needs_erase] if any bit would go
    0 -> 1, naming the page of the first such byte, and then writes
    nothing. *)

val write_string : t -> offset:int -> string -> (unit, error) result
(** {!write} from a string, without copying it. *)

val erase_page : t -> page:int -> (unit, error) result

val erase_range : t -> offset:int -> length:int -> (unit, error) result
(** Erase every page covering the range; [offset] must be page-aligned. *)
