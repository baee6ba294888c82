(* NOR-flash simulator.

   Real microcontroller flash has erase-before-write semantics: an erase
   sets a page to all-ones, and programming can only clear bits (1 -> 0).
   Writing without erasing silently corrupts data on real hardware; this
   simulator makes that a checked error so firmware logic (the slot
   manager, SUIT install path) is forced to handle it correctly.  Erase
   counters per page model wear. *)

type t = {
  page_size : int;
  pages : int;
  data : bytes;
  erase_counts : int array;
  mutable writes : int;
  mutable erases : int;
}

type error =
  | Out_of_range of { offset : int; length : int }
  | Write_needs_erase of { page : int }
  | Unaligned_erase of { offset : int }

let error_to_string = function
  | Out_of_range { offset; length } ->
      Printf.sprintf "access [%d, +%d) outside flash" offset length
  | Write_needs_erase { page } ->
      Printf.sprintf "write would set bits 0->1 in page %d (erase first)" page
  | Unaligned_erase { offset } ->
      Printf.sprintf "erase at %d is not page-aligned" offset

let create ?(page_size = 256) ~pages () =
  {
    page_size;
    pages;
    data = Bytes.make (page_size * pages) '\xff';
    erase_counts = Array.make pages 0;
    writes = 0;
    erases = 0;
  }

let size t = t.page_size * t.pages
let page_size t = t.page_size
let erase_count t page = t.erase_counts.(page)
let total_erases t = t.erases

let check_range t offset length =
  if offset < 0 || length < 0 || offset + length > size t then
    Error (Out_of_range { offset; length })
  else Ok ()

let read t ~offset ~length =
  match check_range t offset length with
  | Error e -> Error e
  | Ok () -> Ok (Bytes.sub t.data offset length)

(* Program bytes: every written bit must go 1 -> 0 or stay; a 0 -> 1
   transition means the caller forgot to erase.  [first_violation] is
   the index of the first payload byte that would set a bit, or -1.  It
   compares a word at a time and scans bytes only inside a word that
   sets a bit (and in the tail), so the first violating page is the
   same as a byte-by-byte scan's. *)
let first_violation data offset payload =
  let length = String.length payload in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < length do
    let k = !i in
    if
      k + 8 <= length
      && Int64.logand
           (String.get_int64_ne payload k)
           (Int64.logxor (Bytes.get_int64_ne data (offset + k)) (-1L))
         = 0L
    then i := k + 8
    else begin
      let stop = min length (k + 8) in
      let j = ref k in
      while !found < 0 && !j < stop do
        let current = Char.code (Bytes.get data (offset + !j)) in
        if Char.code payload.[!j] land lnot current <> 0 then found := !j;
        incr j
      done;
      i := stop
    end
  done;
  !found

let write_string t ~offset payload =
  let length = String.length payload in
  match check_range t offset length with
  | Error e -> Error e
  | Ok () ->
      let bad = first_violation t.data offset payload in
      if bad >= 0 then
        Error (Write_needs_erase { page = (offset + bad) / t.page_size })
      else begin
        Bytes.blit_string payload 0 t.data offset length;
        t.writes <- t.writes + 1;
        Ok ()
      end

(* [payload] is only read, and only during the call. *)
let write t ~offset payload =
  write_string t ~offset (Bytes.unsafe_to_string payload)

let erase_page t ~page =
  if page < 0 || page >= t.pages then
    Error (Out_of_range { offset = page * t.page_size; length = t.page_size })
  else begin
    Bytes.fill t.data (page * t.page_size) t.page_size '\xff';
    t.erase_counts.(page) <- t.erase_counts.(page) + 1;
    t.erases <- t.erases + 1;
    Ok ()
  end

(* Erase the whole page range covering [offset, offset+length). *)
let erase_range t ~offset ~length =
  if offset mod t.page_size <> 0 then Error (Unaligned_erase { offset })
  else
    match check_range t offset length with
    | Error e -> Error e
    | Ok () ->
        let first = offset / t.page_size in
        let last = (offset + length - 1) / t.page_size in
        let rec loop page =
          if page > last then Ok ()
          else
            match erase_page t ~page with
            | Ok () -> loop (page + 1)
            | Error e -> Error e
        in
        loop first
