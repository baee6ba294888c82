(* A tenant: an entity allowed to deploy containers on the device.

   Tenants have limited mutual trust (paper §2/§3): each gets its own
   intermediate key-value store, and the isolation tests assert that no
   container can reach another tenant's store. *)

type t = { id : string; store : Kvstore.t }

let create id = { id; store = Kvstore.create ("tenant:" ^ id) }
let id t = t.id
let store t = t.store
