type kind = X86 | Hops | Eadr | Cxl

type op =
  | Write of { addr : int; size : int }
  | Clwb of { addr : int; size : int }
  | Sfence
  | Ofence
  | Dfence
  | Gpf

let kind_name = function X86 -> "x86" | Hops -> "hops" | Eadr -> "eadr" | Cxl -> "cxl"
let all_kinds = [ X86; Hops; Eadr; Cxl ]
let kind_names = List.map kind_name all_kinds

let kind_of_string = function
  | "x86" | "X86" -> Some X86
  | "hops" | "HOPS" | "Hops" -> Some Hops
  | "eadr" | "eADR" | "EADR" -> Some Eadr
  | "cxl" | "CXL" | "Cxl" -> Some Cxl
  | _ -> None

let valid_op kind op =
  match (kind, op) with
  | _, Write _ -> true
  | X86, (Clwb _ | Sfence) -> true
  | X86, (Ofence | Dfence | Gpf) -> false
  | Hops, (Ofence | Dfence) -> true
  | Hops, (Clwb _ | Sfence | Gpf) -> false
  (* eADR platforms still execute legacy clwb/sfence instructions; they
     are simply unnecessary. *)
  | Eadr, (Clwb _ | Sfence) -> true
  | Eadr, (Ofence | Dfence | Gpf) -> false
  (* CXL shared memory: stores become globally visible immediately; the
     only durability primitive is the global persist barrier. *)
  | Cxl, Gpf -> true
  | Cxl, (Clwb _ | Sfence | Ofence | Dfence) -> false

let is_fence = function
  | Sfence | Ofence | Dfence | Gpf -> true
  | Write _ | Clwb _ -> false

let pp_op ppf = function
  | Write { addr; size } -> Format.fprintf ppf "write(0x%x,%d)" addr size
  | Clwb { addr; size } -> Format.fprintf ppf "clwb(0x%x,%d)" addr size
  | Sfence -> Format.pp_print_string ppf "sfence"
  | Ofence -> Format.pp_print_string ppf "ofence"
  | Dfence -> Format.pp_print_string ppf "dfence"
  | Gpf -> Format.pp_print_string ppf "gpf"

let cache_line = 64
let line_of_addr a = a / cache_line
let line_span ~addr ~size = (line_of_addr addr, line_of_addr (addr + size - 1))
