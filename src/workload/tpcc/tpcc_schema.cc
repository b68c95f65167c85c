#include "workload/tpcc/tpcc_schema.h"

namespace tell::tpcc {

using schema::IndexDef;
using schema::SchemaBuilder;

Status CreateTpccTables(db::TellDb* db) {
  TELL_RETURN_NOT_OK(db->CreateTable(
      "warehouse",
      SchemaBuilder()
          .AddInt64("w_id").AddString("w_name").AddString("w_street_1")
          .AddString("w_street_2").AddString("w_city").AddString("w_state")
          .AddString("w_zip").AddDouble("w_tax").AddDouble("w_ytd")
          .SetPrimaryKey({"w_id"})
          .Build(),
      {}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "district",
      SchemaBuilder()
          .AddInt64("d_w_id").AddInt64("d_id").AddString("d_name")
          .AddString("d_street_1").AddString("d_street_2").AddString("d_city")
          .AddString("d_state").AddString("d_zip").AddDouble("d_tax")
          .AddDouble("d_ytd").AddInt64("d_next_o_id")
          .SetPrimaryKey({"d_w_id", "d_id"})
          .Build(),
      {}));

  IndexDef customer_by_name;
  customer_by_name.name = "by_name";
  customer_by_name.key_columns = {col::kCWId, col::kCDId, col::kCLast,
                                  col::kCFirst};
  customer_by_name.unique = false;
  TELL_RETURN_NOT_OK(db->CreateTable(
      "customer",
      SchemaBuilder()
          .AddInt64("c_w_id").AddInt64("c_d_id").AddInt64("c_id")
          .AddString("c_first").AddString("c_middle").AddString("c_last")
          .AddString("c_street_1").AddString("c_street_2").AddString("c_city")
          .AddString("c_state").AddString("c_zip").AddString("c_phone")
          .AddInt64("c_since").AddString("c_credit").AddDouble("c_credit_lim")
          .AddDouble("c_discount").AddDouble("c_balance")
          .AddDouble("c_ytd_payment").AddInt64("c_payment_cnt")
          .AddInt64("c_delivery_cnt").AddString("c_data")
          .SetPrimaryKey({"c_w_id", "c_d_id", "c_id"})
          .Build(),
      {customer_by_name}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "history",
      SchemaBuilder()
          .AddInt64("h_id").AddInt64("h_c_id").AddInt64("h_c_d_id")
          .AddInt64("h_c_w_id").AddInt64("h_d_id").AddInt64("h_w_id")
          .AddInt64("h_date").AddDouble("h_amount").AddString("h_data")
          .SetPrimaryKey({"h_id"})
          .Build(),
      {}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "new_order",
      SchemaBuilder()
          .AddInt64("no_w_id").AddInt64("no_d_id").AddInt64("no_o_id")
          .SetPrimaryKey({"no_w_id", "no_d_id", "no_o_id"})
          .Build(),
      {}));

  IndexDef orders_by_customer;
  orders_by_customer.name = "by_customer";
  orders_by_customer.key_columns = {col::kOWId, col::kODId, col::kOCId,
                                    col::kOId};
  orders_by_customer.unique = false;
  TELL_RETURN_NOT_OK(db->CreateTable(
      "orders",
      SchemaBuilder()
          .AddInt64("o_w_id").AddInt64("o_d_id").AddInt64("o_id")
          .AddInt64("o_c_id").AddInt64("o_entry_d").AddInt64("o_carrier_id")
          .AddInt64("o_ol_cnt").AddInt64("o_all_local")
          .SetPrimaryKey({"o_w_id", "o_d_id", "o_id"})
          .Build(),
      {orders_by_customer}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "order_line",
      SchemaBuilder()
          .AddInt64("ol_w_id").AddInt64("ol_d_id").AddInt64("ol_o_id")
          .AddInt64("ol_number").AddInt64("ol_i_id")
          .AddInt64("ol_supply_w_id").AddInt64("ol_delivery_d")
          .AddInt64("ol_quantity").AddDouble("ol_amount")
          .AddString("ol_dist_info")
          .SetPrimaryKey({"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"})
          .Build(),
      {}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "item",
      SchemaBuilder()
          .AddInt64("i_id").AddInt64("i_im_id").AddString("i_name")
          .AddDouble("i_price").AddString("i_data")
          .SetPrimaryKey({"i_id"})
          .Build(),
      {}));

  TELL_RETURN_NOT_OK(db->CreateTable(
      "stock",
      SchemaBuilder()
          .AddInt64("s_w_id").AddInt64("s_i_id").AddInt64("s_quantity")
          .AddString("s_dist_01").AddString("s_dist_02").AddString("s_dist_03")
          .AddString("s_dist_04").AddString("s_dist_05").AddString("s_dist_06")
          .AddString("s_dist_07").AddString("s_dist_08").AddString("s_dist_09")
          .AddString("s_dist_10").AddDouble("s_ytd").AddInt64("s_order_cnt")
          .AddInt64("s_remote_cnt").AddString("s_data")
          .SetPrimaryKey({"s_w_id", "s_i_id"})
          .Build(),
      {}));
  return Status::OK();
}

Result<TpccTables> OpenTpccTables(db::TellDb* db, uint32_t pn_id) {
  TpccTables tables;
  TELL_ASSIGN_OR_RETURN(tables.warehouse, db->GetTable(pn_id, "warehouse"));
  TELL_ASSIGN_OR_RETURN(tables.district, db->GetTable(pn_id, "district"));
  TELL_ASSIGN_OR_RETURN(tables.customer, db->GetTable(pn_id, "customer"));
  TELL_ASSIGN_OR_RETURN(tables.history, db->GetTable(pn_id, "history"));
  TELL_ASSIGN_OR_RETURN(tables.new_order, db->GetTable(pn_id, "new_order"));
  TELL_ASSIGN_OR_RETURN(tables.orders, db->GetTable(pn_id, "orders"));
  TELL_ASSIGN_OR_RETURN(tables.order_line, db->GetTable(pn_id, "order_line"));
  TELL_ASSIGN_OR_RETURN(tables.item, db->GetTable(pn_id, "item"));
  TELL_ASSIGN_OR_RETURN(tables.stock, db->GetTable(pn_id, "stock"));
  return tables;
}

}  // namespace tell::tpcc
